// Command bench-compare diffs two benchmark JSON artifacts and exits
// non-zero on a regression. It reads every artifact kind — sweep files
// written by abcast-bench -json, chaos files written by chaos-bench -json,
// and placement files written by ycsb-bench -pgs -json — and requires the
// baseline to be of the same kind. Deterministic fields (committed counts,
// simulated time, throughput, latency quantiles, trace fingerprints, MTTR,
// observer and device digests) must match exactly; wall-clock is compared
// only within -wall-tolerance, and a negative tolerance skips it entirely —
// use that when the baseline was measured on a different machine.
//
// Exit status: 0 when the artifacts match, 1 on a regression, 2 on a usage
// error, an unreadable file, an unknown kind, or a kind mismatch.
//
// Usage:
//
//	bench-compare -baseline BENCH_baseline.json -current out.json
//	bench-compare -baseline chaos_base.json -current chaos.json
//	bench-compare -baseline a.json -current b.json -wall-tolerance 0.10
package main

import (
	"flag"
	"fmt"
	"os"

	"acuerdo/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "", "baseline artifact (required)")
	current := flag.String("current", "", "artifact to check against the baseline (required)")
	wallTol := flag.Float64("wall-tolerance", -1, "allowed fractional wall-clock growth (0.10 = +10%); negative skips the wall-clock check")
	flag.Parse()

	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "bench-compare: -baseline and -current are both required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := bench.ReadArtifact(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}
	cur, err := bench.ReadArtifact(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}
	if base.Kind != cur.Kind {
		fmt.Fprintf(os.Stderr, "bench-compare: artifact kinds differ: baseline %q, current %q\n", base.Kind, cur.Kind)
		os.Exit(2)
	}
	if err := bench.Compare(cur, base, *wallTol); err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: REGRESSION: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench-compare: %d points match baseline %s\n", len(cur.Points), *baseline)
}
