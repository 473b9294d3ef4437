package main

import (
	"time"

	"acuerdo/internal/bench"
)

// spec is one benchmark workload. Every delay injected between nodes is
// the DefaultParams of rdma (900 ns link latency plus 80 ns mean jitter at
// 25 Gb/s), tcpnet (adding 6 µs kernel and 4 µs wakeup latency) and disk
// (10 µs fsync).
type spec struct {
	name       string
	kind       bench.Kind
	durability bench.Durability
	pgs        int // placement groups on the shared fleet; 0 = one ring

	// Measured run: open loop at rate (0 = closed loop, window per group).
	rate     float64
	window   int
	payload  int           // broadcast payload bytes (single-ring workloads)
	records  uint64        // YCSB keyspace
	value    int           // YCSB value bytes
	lead     time.Duration // unmeasured load before each window
	span     time.Duration // window of the run the simulated metrics come from
	hostSpan time.Duration // window of each repeat the host metrics come from
	traced   time.Duration // window of the traced run

	// Capacity: the highest offered rate of ladder whose run over
	// probeSpan keeps p99 within limit with no growing backlog.
	ladder    []float64
	limit     time.Duration
	probeSpan time.Duration
}

// drainCap bounds the quiet tail after a window in which measured requests
// may still be acknowledged.
const drainCap = 50 * time.Millisecond

// geometric returns n rates from lo, each step ratio above the last.
func geometric(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo
		lo *= ratio
	}
	return out
}

// workloads are the benchmark's inputs. Why each exists is recorded in
// BENCHMARK.json; the constants below size each run so that its
// simulated metrics carry enough samples (at least ten beyond p99.9).
var workloads = []*spec{
	{
		// The paper's headline path: simnet, rdma, ringbuf, sst and acuerdo
		// do the work; kvstore, disk, observe, placement and tcpnet none.
		name: "bcast", kind: bench.Acuerdo,
		rate: 300e3, payload: 10,
		lead: 2 * time.Millisecond, span: 400 * time.Millisecond, hostSpan: 100 * time.Millisecond, traced: 20 * time.Millisecond,
		ladder: geometric(200e3, 1.04, 24), limit: 50 * time.Microsecond, probeSpan: 80 * time.Millisecond,
	},
	{
		// The knee of the scale-out ladder: co-located replicas of 16
		// groups contend for 12 fleet CPUs.
		name: "ycsb-sharded", kind: bench.Acuerdo, pgs: 16,
		window: 16, records: 10000, value: 100,
		lead: 2 * time.Millisecond, span: 20 * time.Millisecond, hostSpan: 10 * time.Millisecond, traced: 3 * time.Millisecond,
		ladder: geometric(1e6, 1.04, 32), limit: 500 * time.Microsecond, probeSpan: 4 * time.Millisecond,
	},
	{
		// The only TCP protocol: etcd's WAL fsync sits on the commit path.
		name: "raft-durable", kind: bench.Etcd, durability: bench.Durable,
		rate: 5e3, payload: 10,
		lead: 2 * time.Millisecond, span: 16 * time.Second, hostSpan: 2 * time.Second, traced: 500 * time.Millisecond,
		ladder: geometric(1e3, 1.02, 105), limit: time.Millisecond, probeSpan: 16 * time.Second,
	},
}

func lookup(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
