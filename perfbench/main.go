// Command perfbench is the repository benchmark. It runs one named
// workload in one process, checks every output for correctness, and
// prints the workload's end-to-end metrics (or, with -trace 1, its
// per-layer metrics) as one JSON line:
//
//	go run . -workload bcast -seed 1 -seconds 10 -trace 0
//
// Simulated metrics are exact functions of (workload, seed); host metrics
// are medians over repeated runs that fill -seconds of wall time.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect marks a run whose outputs failed the correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	workload := flag.String("workload", "", "workload name (bcast, ycsb-sharded, failover, raft-durable)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall seconds of repeated measurement")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.Parse()
	sp := lookup(*workload)
	if sp == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *workload, *traced, *seconds)
		os.Exit(2)
	}
	// One simulation is single-threaded; a second core serves the GC.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *traced == 1 {
		rep, err = runLayers(os.Stdout, sp, *seed, budget)
	} else {
		rep, err = runEndToEnd(os.Stdout, sp, *seed, budget)
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		rep.Correct = false
		rep.Failed = rep.Attempted
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// simMetrics are a run's simulated end-to-end results: exact functions of
// (workload, seed).
type simMetrics struct {
	P50, P99, P999 float64 // µs
	Samples        int
	Beyond999      int // samples above p99.9
	Goodput        float64
	Attempted      int
	Failed         int
	Lateness       time.Duration // generator, in simulated time
	Fingerprint    uint64
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// simOf derives the simulated end-to-end metrics of one run.
func simOf(w *world, r *runResult) simMetrics {
	m := simMetrics{
		Samples:     r.lat.N(),
		Attempted:   r.attempted,
		Failed:      r.attempted - r.acked,
		Lateness:    r.lateness,
		Fingerprint: fingerprint(w, r),
	}
	q := r.lat.Quantiles(50, 99, 99.9)
	m.P50, m.P99, m.P999 = us(q[0]), us(q[1]), us(q[2])
	for _, s := range r.lat.Samples() {
		if s > q[2] {
			m.Beyond999++
		}
	}
	if r.lastAck > r.from {
		m.Goodput = float64(r.acked) / r.lastAck.Sub(r.from).Seconds()
	}
	return m
}

// hostSample is one run's host cost.
type hostSample struct {
	wall        time.Duration
	allocsPerOp float64
	heapMB      float64
}

// runEndToEnd measures sp's end-to-end metrics. The simulated ones come
// from one run over the long window; the host ones are medians over
// repeats of the shorter host window that fill budget, each of which must
// replay the first bit for bit. Every run passes the correctness gate.
func runEndToEnd(out io.Writer, sp *spec, seed int64, budget time.Duration) (report, error) {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	measure := func(span time.Duration) (*world, *runResult, error) {
		runtime.GC()
		w, err := newWorld(sp, seed, nil, false)
		if err != nil {
			return nil, nil, err
		}
		r, err := runLoad(w, loadPlan{rate: sp.rate, window: sp.window, lead: sp.lead, span: span, drain: drainCap})
		if err != nil {
			return nil, nil, err
		}
		rep.Attempted += r.attempted
		rep.Failed += r.attempted - r.acked
		if err := verify(w, r); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", errIncorrect, err)
		}
		return w, r, nil
	}
	w, r, err := measure(sp.span)
	if err != nil {
		return rep, err
	}
	first := simOf(w, r)
	w.close()
	if first.Beyond999 < 10 {
		return rep, fmt.Errorf("only %d samples beyond p99.9 of %d; lengthen the window", first.Beyond999, first.Samples)
	}

	// setUp builds and warms one more world, for the set-up median only.
	var setups []float64
	setUp := func() error {
		runtime.GC()
		w, err := newWorld(sp, seed, nil, false)
		if err != nil {
			return err
		}
		setups = append(setups, (w.build + w.warm).Seconds())
		w.close()
		return nil
	}
	var replay simMetrics
	var hosts []hostSample
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		w, r, err := measure(sp.hostSpan)
		if err != nil {
			return rep, err
		}
		if m := simOf(w, r); i == 0 {
			replay = m
		} else if m != replay {
			return rep, fmt.Errorf("%w: same-seed repeat %d diverged: %+v vs %+v", errIncorrect, i, m, replay)
		}
		setups = append(setups, (w.build + w.warm).Seconds())
		hosts = append(hosts, hostSample{
			wall:        r.wall,
			allocsPerOp: float64(r.mallocs) / float64(r.acked),
			heapMB:      float64(r.heap) / (1 << 20),
		})
		w.close()
		// More set-ups after every repeat, so that their median samples
		// the host across the whole run.
		for t := time.Now(); time.Since(t) < 50*time.Millisecond; {
			if err := setUp(); err != nil {
				return rep, err
			}
		}
	}
	for len(setups) < 11 {
		if err := setUp(); err != nil {
			return rep, err
		}
	}
	capOps, probes, err := capacity(sp, seed, &rep)
	if err != nil {
		return rep, err
	}

	pick := func(f func(hostSample) float64) float64 {
		v := make([]float64, len(hosts))
		for i, h := range hosts {
			v[i] = f(h)
		}
		return median(v)
	}
	set := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	set("commit_p50_us", "us", first.P50)
	set("commit_p99_us", "us", first.P99)
	set("commit_p999_us", "us", first.P999)
	set("goodput_ops", "1/s", first.Goodput)
	set("capacity_ops", "1/s", capOps)
	set("setup_s", "s", median(setups))
	set("allocs_per_op", "count", pick(func(h hostSample) float64 { return h.allocsPerOp }))
	set("heap_mb", "MB", pick(func(h hostSample) float64 { return h.heapMB }))

	fmt.Fprintf(out, "%s seed %d: %d repeats, %d set-ups\n", sp.name, seed, len(hosts), len(setups))
	// Wall time is printed, not reported: on a shared host it drifts by more
	// than any bound a regression gate could use.
	fmt.Fprintf(out, "  wall_s of the host window: median %.6f s; per repeat:", pick(func(h hostSample) float64 { return h.wall.Seconds() }))
	for _, h := range hosts {
		fmt.Fprintf(out, " %.4f", h.wall.Seconds())
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  commit latency over %d samples (%d beyond p99.9): p50 %.3f us, p99 %.3f us, p99.9 %.3f us\n",
		first.Samples, first.Beyond999, first.P50, first.P99, first.P999)
	fmt.Fprintf(out, "  attempted %d, failed %d (failed_frac %.6f), generator lateness %v in simulated time\n",
		first.Attempted, first.Failed, float64(first.Failed)/float64(first.Attempted), first.Lateness)
	fmt.Fprintf(out, "  fingerprint %016x\n", first.Fingerprint)
	fmt.Fprintf(out, "  capacity ladder probes (limit p99 %v): %s\n", sp.limit, probes)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-16s %14.6f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	return rep, nil
}

// capacity walks sp's offered-rate ladder by bisection and returns the
// highest rate whose run keeps p99 within sp.limit without a growing
// backlog (more requests outstanding at the window's end than Little's law
// allows at that limit). Passing is taken to be monotone in the rate.
// Every probe passes the correctness gate and its requests count in rep.
func capacity(sp *spec, seed int64, rep *report) (float64, string, error) {
	var log strings.Builder
	pass := func(rate float64) (bool, error) {
		w, err := newWorld(sp, seed, nil, false)
		if err != nil {
			return false, err
		}
		defer w.close()
		r, err := runLoad(w, loadPlan{rate: rate, lead: sp.lead, span: sp.probeSpan, drain: drainCap})
		if err != nil {
			return false, err
		}
		rep.Attempted += r.attempted
		rep.Failed += r.attempted - r.acked
		if err := verify(w, r); err != nil {
			return false, fmt.Errorf("%w: capacity probe at %.0f/s: %v", errIncorrect, rate, err)
		}
		p99 := r.lat.Percentile(99)
		ok := p99 <= sp.limit && float64(r.backlog) <= rate*sp.limit.Seconds()
		fmt.Fprintf(&log, "%.0f/s p99 %.1fus backlog %d ok=%v; ", rate, us(p99), r.backlog, ok)
		return ok, nil
	}
	lo, hi := -1, len(sp.ladder) // ladder[lo] passes, ladder[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := pass(sp.ladder[mid])
		if err != nil {
			return 0, "", err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, "", fmt.Errorf("the lowest rung %.0f/s already misses the %v p99 limit: %s", sp.ladder[0], sp.limit, log.String())
	}
	if hi == len(sp.ladder) {
		return 0, "", fmt.Errorf("the highest rung %.0f/s still meets the %v p99 limit; extend the ladder", sp.ladder[lo], sp.limit)
	}
	return sp.ladder[lo], log.String(), nil
}

// median returns the median of v (mean of the middle pair when even).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
