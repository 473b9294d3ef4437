package bench

import (
	"fmt"
	"io"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/simnet"
)

// quickFig8 shrinks one load point per system for test speed.
func quickFig8(nodes, msgSize int) Fig8Config {
	return Fig8Config{
		Nodes:   nodes,
		MsgSize: msgSize,
		Windows: []int{8},
		Warmup:  2 * time.Millisecond,
		Measure: 8 * time.Millisecond,
		Seed:    1,
	}
}

func TestAllSystemsMeasurable(t *testing.T) {
	cfg := quickFig8(3, 10)
	for _, k := range AllKinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			res := SweepSystem(k, cfg)
			if len(res) != 1 {
				t.Fatalf("points = %d", len(res))
			}
			if res[0].Committed == 0 {
				t.Fatalf("%s committed nothing", k)
			}
			if res[0].Latency.Mean() <= 0 {
				t.Fatalf("%s has zero latency", k)
			}
		})
	}
}

func TestShapeAcuerdoBeatsDerechoLatency(t *testing.T) {
	// Paper headline: Acuerdo ~10us vs Derecho-leader >=19us at low load.
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{1}
	a := SweepSystem(Acuerdo, cfg)[0]
	d := SweepSystem(DerechoLeader, cfg)[0]
	if a.Latency.Mean() >= d.Latency.Mean() {
		t.Fatalf("acuerdo %v !< derecho-leader %v", a.Latency.Mean(), d.Latency.Mean())
	}
	if a.Latency.Mean() > 25*time.Microsecond {
		t.Fatalf("acuerdo latency %v out of the ~10us band", a.Latency.Mean())
	}
}

func TestShapeTCPOrderOfMagnitudeSlower(t *testing.T) {
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{1}
	a := SweepSystem(Acuerdo, cfg)[0]
	for _, k := range []Kind{Zookeeper, Libpaxos, Etcd} {
		r := SweepSystem(k, cfg)[0]
		if r.Latency.Mean() < 8*a.Latency.Mean() {
			t.Fatalf("%s latency %v not ~10x above acuerdo %v", k, r.Latency.Mean(), a.Latency.Mean())
		}
	}
}

func TestShapeAcuerdoSmallMsgBandwidth2xDerecho(t *testing.T) {
	// One write vs two per 10-byte message: ~2x throughput at saturation.
	cfg := quickFig8(3, 10)
	cfg.Windows = []int{256}
	cfg.Measure = 15 * time.Millisecond
	a := SweepSystem(Acuerdo, cfg)[0]
	d := SweepSystem(DerechoLeader, cfg)[0]
	ratio := a.MBPerSec / d.MBPerSec
	if ratio < 1.4 || ratio > 3.5 {
		t.Fatalf("acuerdo/derecho-leader throughput ratio = %.2f (a=%.2f d=%.2f), want ~2",
			ratio, a.MBPerSec, d.MBPerSec)
	}
}

func TestElectionBenchProducesDurations(t *testing.T) {
	cfg := DefaultElection(3)
	cfg.Rounds = 4
	if testing.Short() {
		cfg.Rounds = 2
	}
	res := ElectionBench(cfg)
	if len(res.Durations) < 2 {
		t.Fatalf("only %d elections measured", len(res.Durations))
	}
	for _, d := range res.Durations {
		if d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("implausible election duration %v", d)
		}
	}
}

func TestYCSBShape(t *testing.T) {
	res, _ := Figure9Parallel([]int{3}, 1, 1)
	a, e, z := res[0], res[1], res[2]
	if a.Committed == 0 || z.Committed == 0 || e.Committed == 0 {
		t.Fatalf("committed: a=%d z=%d e=%d", a.Committed, z.Committed, e.Committed)
	}
	if a.OpsPerSec < 4*z.OpsPerSec {
		t.Fatalf("acuerdo %.0f not >> zookeeper %.0f", a.OpsPerSec, z.OpsPerSec)
	}
	if z.OpsPerSec < 1.5*e.OpsPerSec {
		t.Fatalf("zookeeper %.0f not > etcd %.0f", z.OpsPerSec, e.OpsPerSec)
	}
}

// TestReplicaProcsLengthEnforced: replica i runs on ReplicaProcs[i] when
// the slice has exactly n entries, and any other length fails construction
// instead of landing a client on a fleet CPU or leaking surplus CPUs into
// the next group on a shared interconnect.
func TestReplicaProcsLengthEnforced(t *testing.T) {
	const n = 3
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			build := func(procs int) (*Instance, []*simnet.Proc) {
				sim := simnet.New(1)
				o := Options{ReplicaProcs: make([]*simnet.Proc, procs)}
				for i := range o.ReplicaProcs {
					o.ReplicaProcs[i] = simnet.NewProc(sim, 1000+i, fmt.Sprintf("fleet%d", i))
				}
				return NewInstanceOn(sim, kind, n, o), o.ReplicaProcs
			}
			inst, procs := build(n)
			defer inst.Close()
			for i := 0; i < n; i++ {
				if _, p := replicaNode(inst.Sys, i); p != procs[i] {
					t.Fatalf("replica %d runs on %v, want ReplicaProcs[%d]", i, p, i)
				}
			}
			for _, procs := range []int{n - 1, n + 1} {
				if !panics(func() { build(procs) }) {
					t.Fatalf("%d ReplicaProcs for %d replicas did not panic", procs, n)
				}
			}
		})
	}
}

func TestPrintersDoNotPanic(t *testing.T) {
	cfg := quickFig8(3, 10)
	res := map[Kind][]abcast.LoadResult{Acuerdo: SweepSystem(Acuerdo, cfg)}
	PrintFigure8(io.Discard, "test", cfg, res, []Kind{Acuerdo})
	PrintTable1(io.Discard, []Table1Row{{Quiet: ElectionResult{Nodes: 3, Durations: []time.Duration{time.Millisecond}}}})
	PrintFigure9(io.Discard, []PlacementResult{{System: "acuerdo", Config: DefaultYCSB(Acuerdo, 3)}})
}
