package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"acuerdo/internal/metrics"
	"acuerdo/internal/trace"
)

// layerSnap is the per-layer state of a traced run at one instant.
type layerSnap struct {
	ctr  [trace.NumCounters]int64
	busy []time.Duration // per simulated CPU, in creation order
}

func takeSnap(w *world) layerSnap {
	var s layerSnap
	for c := range s.ctr {
		s.ctr[c] = w.tr.Counter(trace.Counter(c))
	}
	for _, p := range w.sim.Procs() {
		s.busy = append(s.busy, p.BusyTime())
	}
	return s
}

// layerNames lists every per-layer metric with its unit, in report order.
var layerNames = []struct{ name, unit string }{
	{"simnet.events_per_op", "count"},
	{"simnet.polls_per_op", "count"},
	{"simnet.poll_cpu_frac", "frac"},
	{"simnet.cpu_busy_max", "frac"},
	{"simnet.host_ns_per_event", "ns"},
	{"rdma.writes_per_op", "count"},
	{"rdma.bytes_per_op", "B"},
	{"rdma.post_ns_per_op", "ns"},
	{"rdma.wire_busy_frac", "frac"},
	{"rdma.signaled_frac", "frac"},
	{"tcpnet.msgs_per_op", "count"},
	{"tcpnet.bytes_per_op", "B"},
	{"tcpnet.send_ns_per_op", "ns"},
	{"tcpnet.wakeups_per_op", "count"},
	{"proto.elections", "count"},
	{"proto.election_ms_max", "ms"},
	{"decomp.post_p50_us", "us"},
	{"decomp.post_p99_us", "us"},
	{"decomp.wire_p50_us", "us"},
	{"decomp.wire_p99_us", "us"},
	{"decomp.proto_p50_us", "us"},
	{"decomp.proto_p99_us", "us"},
	{"decomp.ack_p50_us", "us"},
	{"decomp.ack_p99_us", "us"},
	{"disk.writes_per_op", "count"},
	{"disk.fsyncs_per_op", "count"},
	{"disk.fsync_bytes_per_op", "B"},
	{"kvstore.apply_host_ns", "ns"},
	{"ycsb.gen_host_ns", "ns"},
	{"abcast.check_host_ns", "ns"},
	{"placement.build_host_ms", "ms"},
	{"placement.pg_ops_spread", "frac"},
	{"placement.max_leaders_per_node", "count"},
	{"bench.build_host_ms", "ms"},
	{"bench.warmup_host_ms", "ms"},
	{"observe.checks_per_op", "count"},
	{"observe.violations", "count"},
	{"observe.overhead_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.dropped", "count"},
}

// hostLayerNames are the per-layer metrics measured in host time: they are
// medians over the repeats, the rest are exact per seed.
var hostLayerNames = map[string]bool{
	"simnet.host_ns_per_event": true,
	"kvstore.apply_host_ns":    true,
	"ycsb.gen_host_ns":         true,
	"abcast.check_host_ns":     true,
	"placement.build_host_ms":  true,
	"bench.build_host_ms":      true,
	"bench.warmup_host_ms":     true,
	"observe.overhead_frac":    true,
	"trace.overhead_frac":      true,
}

// runLayers reports sp's per-layer metrics. Each repeat runs the traced
// window three times on fresh worlds: untraced (the reference), traced
// with an event ring large enough to drop nothing, and untraced under
// invariant observers. Simulated per-layer values come from the traced
// and observed runs and must repeat exactly; host ones are medians.
func runLayers(out io.Writer, sp *spec, seed int64, budget time.Duration) (report, error) {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	plan := loadPlan{rate: sp.rate, window: sp.window, lead: sp.lead, span: sp.traced, drain: drainCap}
	run := func(tr *trace.Tracer, observed bool) (*world, *runResult, error) {
		runtime.GC()
		w, err := newWorld(sp, seed, tr, observed)
		if err != nil {
			return nil, nil, err
		}
		defer w.close()
		w.hostTiming = tr != nil
		r, err := runLoad(w, plan)
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
	var first map[string]float64
	var note string
	host := map[string][]float64{}
	ring := 0
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		w0, r0, err := run(nil, false)
		if err != nil {
			return rep, err
		}
		if ring == 0 {
			// Every dispatched event emits a handful of trace events.
			ring = int(w0.sim.Processed()) * 6
		}
		tr := trace.New(ring)
		w1, r1, err := run(tr, false)
		if err != nil {
			return rep, err
		}
		if tr.Dropped() > 0 {
			// Same seed, same stream: a ring of the exact size drops nothing.
			ring = int(tr.Emitted())
			tr = trace.New(ring)
			if w1, r1, err = run(tr, false); err != nil {
				return rep, err
			}
		}
		v, decomp, err := layerValues(w1, r1)
		if err != nil {
			return rep, fmt.Errorf("%w: %v", errIncorrect, err)
		}
		wo, ro, err := run(nil, true)
		if err != nil {
			return rep, err
		}
		var violations int64
		for _, g := range wo.groups {
			violations += g.obs.ViolationCount()
		}
		v["observe.checks_per_op"] = float64(ro.checks) / float64(ro.acked)
		v["observe.violations"] = float64(violations)

		v["simnet.host_ns_per_event"] = float64(r0.wall) / float64(r0.events)
		v["bench.build_host_ms"] = ms(w0.build)
		v["bench.warmup_host_ms"] = ms(w0.warm)
		v["placement.build_host_ms"] = ms(w0.placementBuild)
		v["trace.overhead_frac"] = float64(r1.wall)/float64(r0.wall) - 1
		v["observe.overhead_frac"] = float64(ro.wall)/float64(r0.wall) - 1
		for name := range hostLayerNames {
			host[name] = append(host[name], v[name])
			delete(v, name)
		}
		if first == nil {
			first, note = v, decomp
		} else if err := sameValues(first, v); err != nil {
			return rep, fmt.Errorf("%w: same-seed traced repeat %d diverged: %v", errIncorrect, i, err)
		}
	}
	for name, vs := range host {
		first[name] = median(vs)
	}
	fmt.Fprintf(out, "%s seed %d: %d repeats of the traced window, event ring %d\n", sp.name, seed, len(host["trace.overhead_frac"]), ring)
	fmt.Fprintf(out, "  %s\n", note)
	for _, l := range layerNames {
		v, ok := first[l.name]
		if !ok {
			return rep, fmt.Errorf("per-layer metric %s was not computed", l.name)
		}
		rep.Metrics[l.name] = metric{v, l.unit}
		fmt.Fprintf(out, "  %-32s %16.6f %s\n", l.name, v, l.unit)
	}
	return rep, nil
}

func sameValues(a, b map[string]float64) error {
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("%s: %v vs %v", k, v, b[k])
		}
	}
	return nil
}

// layerValues derives the simulated per-layer metrics (and the hook-timed
// host ones) of a traced run over its measured window.
func layerValues(w *world, r *runResult) (map[string]float64, string, error) {
	tr := w.tr
	if d := tr.Dropped(); d > 0 {
		return nil, "", fmt.Errorf("trace ring dropped %d events", d)
	}
	ops := float64(r.acked)
	a, b := r.snap[0], r.snap[1]
	d := func(c trace.Counter) float64 { return float64(b.ctr[c] - a.ctr[c]) }
	per := func(c trace.Counter) float64 { return d(c) / ops }
	frac := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	elapsed := float64(r.to.Sub(r.from))
	v := map[string]float64{
		"simnet.events_per_op":    per(trace.CtrSimEvents),
		"simnet.polls_per_op":     per(trace.CtrPolls),
		"simnet.poll_cpu_frac":    frac(d(trace.CtrPollTime), d(trace.CtrProcTime)),
		"rdma.writes_per_op":      per(trace.CtrRDMAWrites),
		"rdma.bytes_per_op":       per(trace.CtrRDMABytes),
		"rdma.post_ns_per_op":     per(trace.CtrRDMAPostTime),
		"rdma.signaled_frac":      frac(d(trace.CtrCQEs), d(trace.CtrCQEs)+d(trace.CtrSigSkips)),
		"tcpnet.msgs_per_op":      per(trace.CtrTCPMsgs),
		"tcpnet.bytes_per_op":     per(trace.CtrTCPBytes),
		"tcpnet.send_ns_per_op":   per(trace.CtrTCPSendTime),
		"tcpnet.wakeups_per_op":   per(trace.CtrTCPWakeups),
		"disk.writes_per_op":      per(trace.CtrDiskWrites),
		"disk.fsyncs_per_op":      per(trace.CtrDiskFsyncs),
		"disk.fsync_bytes_per_op": per(trace.CtrDiskFsyncBytes),
		"trace.dropped":           float64(tr.Dropped()),
	}
	var busyMax time.Duration
	for i := range a.busy {
		if x := b.busy[i] - a.busy[i]; x > busyMax {
			busyMax = x
		}
	}
	v["simnet.cpu_busy_max"] = float64(busyMax) / elapsed

	hostPer := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	v["kvstore.apply_host_ns"] = hostPer(w.applyNS, w.applies)
	v["ycsb.gen_host_ns"] = 0
	if w.pmap != nil {
		v["ycsb.gen_host_ns"] = hostPer(w.genNS, w.genCalls)
	}
	v["abcast.check_host_ns"] = hostPer(w.checkNS, w.checks)

	v["placement.pg_ops_spread"], v["placement.max_leaders_per_node"] = placementBalance(w)

	events := tr.Events()
	v["rdma.wire_busy_frac"] = wireBusyMax(events, r) / elapsed
	elections, electMax := elections(events)
	v["proto.elections"] = float64(elections)
	v["proto.election_ms_max"] = ms(electMax)
	note, err := decompose(events, r, v)
	if err != nil {
		return nil, "", err
	}
	return v, note, nil
}

// placementBalance returns the smallest group's measured ops over the
// largest group's, and the most current leaders any fleet node hosts; both
// zero on single-ring workloads.
func placementBalance(w *world) (float64, float64) {
	if w.pmap == nil {
		return 0, 0
	}
	lo, hi := math.MaxInt, 0
	leaders := make([]int, w.pmap.Config.Fleet)
	for _, g := range w.groups {
		lo = min(lo, g.acked)
		hi = max(hi, g.acked)
		if li := g.inst.ChaosTarget().Leader(); li >= 0 {
			leaders[w.pmap.Groups[g.id].Members[li]]++
		}
	}
	return float64(lo) / float64(hi), float64(slicesMax(leaders))
}

func slicesMax(v []int) int {
	m := 0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// wireBusyMax returns the busiest NIC's serialization time inside the
// measured window.
func wireBusyMax(events []trace.Event, r *runResult) float64 {
	busy := map[int32]int64{}
	var top int64
	for _, e := range events {
		if e.Kind != trace.KWireTx || e.TS < int64(r.from) || e.TS >= int64(r.to) {
			continue
		}
		busy[e.Node] += e.Dur
		top = max(top, busy[e.Node])
	}
	return float64(top)
}

// elections counts the elections won in the whole run, boot included, and
// returns the longest, from the winner's suspicion to its win (diff
// transfer included, detection excluded). Replicas boot electing at time
// zero without a start marker.
func elections(events []trace.Event) (int, time.Duration) {
	started := map[int32]int64{}
	n := 0
	var longest time.Duration
	for _, e := range events {
		switch e.Kind {
		case trace.KElectStart:
			started[e.Node] = e.TS
		case trace.KElectWin:
			n++
			longest = max(longest, time.Duration(e.TS-started[e.Node]))
		}
	}
	return n, longest
}

// stages are one request's phase timestamps: each first-wins, and accept
// counts only from a node other than the proposer.
type stages struct {
	submit, propose, accept, commit, ack int64
	proposer                             int32
}

// decompose splits every measured request's latency into the post, wire,
// proto and ack stages from the traced run's events, reports each stage's
// p50 and p99, and checks that the stage means add up to the measured mean
// latency of the same requests.
func decompose(events []trace.Event, r *runResult, v map[string]float64) (string, error) {
	byID := map[int64]*stages{}
	for _, e := range events {
		switch e.Kind {
		case trace.KSubmit, trace.KPropose, trace.KAccept, trace.KCommit, trace.KAck:
		default:
			continue
		}
		s := byID[e.A]
		if s == nil {
			s = &stages{-1, -1, -1, -1, -1, -1}
			byID[e.A] = s
		}
		switch e.Kind {
		case trace.KSubmit:
			if s.submit < 0 {
				s.submit = e.TS
			}
		case trace.KPropose:
			if s.propose < 0 {
				s.propose, s.proposer = e.TS, e.Node
			}
		case trace.KAccept:
			if s.accept < 0 && e.Node != s.proposer {
				s.accept = e.TS
			}
		case trace.KCommit:
			if s.commit < 0 {
				s.commit = e.TS
			}
		case trace.KAck:
			if s.ack < 0 {
				s.ack = e.TS
			}
		}
	}
	var post, wire, proto, ack metrics.Histogram
	var measured time.Duration
	for id, lat := range r.latByID {
		s := byID[int64(id)]
		if s == nil || s.submit < 0 || s.propose < 0 || s.accept < 0 || s.commit < 0 || s.ack < 0 {
			continue
		}
		post.Add(time.Duration(s.propose - s.submit))
		wire.Add(time.Duration(s.accept - s.propose))
		proto.Add(time.Duration(s.commit - s.accept))
		ack.Add(time.Duration(s.ack - s.commit))
		measured += lat
	}
	n := post.N()
	if n == 0 {
		return "", fmt.Errorf("no measured request has a complete stage chain in the trace")
	}
	stages := post.Mean() + wire.Mean() + proto.Mean() + ack.Mean()
	mean := measured / time.Duration(n)
	// Each of the four means is truncated to a whole nanosecond.
	if d := stages - mean; d > 4 || d < -4 {
		return "", fmt.Errorf("stage means add up to %v, the measured mean latency is %v", stages, mean)
	}
	note := fmt.Sprintf("stages of %d of %d measured requests: means post %v + wire %v + proto %v + ack %v = %v, measured mean %v",
		n, len(r.latByID), post.Mean(), wire.Mean(), proto.Mean(), ack.Mean(), stages, mean)
	for name, h := range map[string]*metrics.Histogram{"post": &post, "wire": &wire, "proto": &proto, "ack": &ack} {
		q := h.Quantiles(50, 99)
		v["decomp."+name+"_p50_us"] = us(q[0])
		v["decomp."+name+"_p99_us"] = us(q[1])
	}
	return note, nil
}
