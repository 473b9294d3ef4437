package bench

import (
	"testing"
	"time"

	"acuerdo/internal/trace"
)

// smallFig8 is a trimmed subfigure: every system, two windows, short
// simulated horizons, tracing on so points carry fingerprints.
func smallFig8() Fig8Config {
	cfg := DefaultFig8(3, 10)
	cfg.Windows = []int{1, 8}
	cfg.Warmup = time.Millisecond
	cfg.Measure = 2 * time.Millisecond
	cfg.MinCommitted = 0
	cfg.TraceEvents = trace.DefaultRing
	return cfg
}

// TestParallelSerialEquivalence is the sweep orchestrator's correctness
// guard: for every system, a parallel sweep must produce bit-identical
// deterministic results — trace fingerprints included — to the serial
// sweep, because both execute the same sealed RunPoint worlds and only the
// scheduling differs.
func TestParallelSerialEquivalence(t *testing.T) {
	cfg := smallFig8()
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo, Etcd}
	}

	serial, _ := Figure8Parallel(cfg, kinds, 1)
	par, _ := Figure8Parallel(cfg, kinds, 4)

	for _, k := range kinds {
		s, p := serial[k], par[k]
		if len(s) != len(p) {
			t.Fatalf("%s: %d serial points, %d parallel", k, len(s), len(p))
		}
		for i := range s {
			if s[i].Window != p[i].Window || s[i].System != p[i].System {
				t.Fatalf("%s point %d: grid mismatch: serial (%s w=%d), parallel (%s w=%d)",
					k, i, s[i].System, s[i].Window, p[i].System, p[i].Window)
			}
			if s[i].Committed != p[i].Committed {
				t.Errorf("%s window %d: committed %d serial, %d parallel", k, s[i].Window, s[i].Committed, p[i].Committed)
			}
			if s[i].Elapsed != p[i].Elapsed {
				t.Errorf("%s window %d: elapsed %v serial, %v parallel", k, s[i].Window, s[i].Elapsed, p[i].Elapsed)
			}
			if s[i].MBPerSec != p[i].MBPerSec || s[i].MsgsPerSec != p[i].MsgsPerSec {
				t.Errorf("%s window %d: throughput (%v, %v) serial, (%v, %v) parallel",
					k, s[i].Window, s[i].MBPerSec, s[i].MsgsPerSec, p[i].MBPerSec, p[i].MsgsPerSec)
			}
			se, pe := s[i].Latency.Export(), p[i].Latency.Export()
			if se.N != pe.N || se.Mean != pe.Mean || se.P50 != pe.P50 || se.P99 != pe.P99 || se.Max != pe.Max {
				t.Errorf("%s window %d: latency summary differs between serial and parallel", k, s[i].Window)
			}
			sf, pf := s[i].Trace.Fingerprint(), p[i].Trace.Fingerprint()
			if sf != pf {
				t.Errorf("%s window %d: fingerprint %016x serial, %016x parallel", k, s[i].Window, sf, pf)
			}
		}
	}
}
