package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// short returns workload name sized for a test: windows of a few thousand
// requests and a two-rung ladder that brackets the capacity. The upper rung
// overloads the system only mildly: a request unacknowledged for the
// system's client retry timeout is resent and then delivered twice.
func short(t *testing.T, name string) *spec {
	t.Helper()
	orig := lookup(name)
	if orig == nil {
		t.Fatalf("no workload %q", name)
	}
	sp := *orig
	switch name {
	case "bcast":
		sp.span, sp.hostSpan, sp.traced, sp.probeSpan = 50*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 10*time.Millisecond
		sp.ladder = []float64{100e3, 600e3}
	case "ycsb-sharded":
		sp.span, sp.hostSpan, sp.traced, sp.probeSpan = 5*time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond
		sp.ladder = []float64{500e3, 4e6}
	case "raft-durable":
		sp.span, sp.hostSpan, sp.traced, sp.probeSpan = 3*time.Second, 100*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond
		sp.ladder = []float64{500, 6e3}
	default:
		t.Fatalf("no test size for workload %q", name)
	}
	return &sp
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// measureOnce runs sp's window once on a fresh world and gates it.
func measureOnce(t *testing.T, sp *spec, seed int64) simMetrics {
	t.Helper()
	w, err := newWorld(sp, seed, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r, err := runLoad(w, loadPlan{rate: sp.rate, window: sp.window, lead: sp.lead, span: sp.hostSpan, drain: drainCap})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(w, r); err != nil {
		t.Fatal(err)
	}
	return simOf(w, r)
}

func TestSameSeedReplaysAndSeedMatters(t *testing.T) {
	for _, wl := range loadBenchmarkJSON(t).Workloads {
		sp := short(t, wl.Name)
		a, b := measureOnce(t, sp, 7), measureOnce(t, sp, 7)
		if a != b {
			t.Errorf("%s: same seed diverged:\n%+v\n%+v", wl.Name, a, b)
		}
		if c := measureOnce(t, sp, 8); c == a || c.Fingerprint == a.Fingerprint {
			t.Errorf("%s: seeds 7 and 8 gave the same run: %+v", wl.Name, c)
		}
	}
}

// checkMetrics fails unless got holds exactly the metrics of want, each
// with its unit.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestEveryMetricIsPrintedWithItsUnit(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, wl := range bj.Workloads {
		sp := short(t, wl.Name)
		rep, err := runEndToEnd(io.Discard, sp, 3, time.Nanosecond)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: end-to-end report %+v", wl.Name, rep)
		}
		checkMetrics(t, wl.Name, rep.Metrics, bj.EndToEnd)

		rep, err = runLayers(io.Discard, sp, 3, time.Nanosecond)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		checkMetrics(t, wl.Name, rep.Metrics, bj.PerLayer)
		if d := rep.Metrics["trace.dropped"].Value; d != 0 {
			t.Errorf("%s: trace dropped %v events", wl.Name, d)
		}
		if v := rep.Metrics["observe.violations"].Value; v != 0 {
			t.Errorf("%s: %v invariant violations", wl.Name, v)
		}
	}
}

// A request that falls due while its ring has no leader is held until one
// serves, and its latency counts from when it fell due.
func TestHeldRequestsAreTimedFromTheirDueTime(t *testing.T) {
	sp := short(t, "bcast")
	w, err := newWorld(sp, 5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	target := w.groups[0].inst.ChaosTarget()
	var crashedAt, servingAt simnet.Time
	w.sim.After(time.Millisecond, func() {
		crashedAt = w.sim.Now()
		target.Crash(target.Leader())
		var poll func()
		poll = func() {
			if w.ready() {
				servingAt = w.sim.Now()
				return
			}
			w.sim.After(time.Microsecond, poll)
		}
		poll()
	})
	r, err := runLoad(w, loadPlan{rate: 50e3, span: 5 * time.Millisecond, drain: drainCap})
	if err != nil {
		t.Fatal(err)
	}
	if servingAt == 0 {
		t.Fatal("no leader served again after the crash")
	}
	outage, worst := servingAt.Sub(crashedAt), r.lat.Max()
	t.Logf("%v without a leader; worst latency %v over %d acked of %d", outage, worst, r.acked, r.attempted)
	if worst < outage {
		t.Errorf("worst latency %v is below the %v without a leader", worst, outage)
	}
	if r.acked == 0 || r.lateness != 0 {
		t.Errorf("acked %d, generator lateness %v", r.acked, r.lateness)
	}
}
