package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"acuerdo/internal/metrics"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// holdRetry is how often held requests re-check for a serving leader.
const holdRetry = 50 * time.Microsecond

// loadPlan is one client run over a warm world: requests fall due from
// start; those due in [from, to) are measured; none falls due at or after
// to. rate is the offered load over all groups (0 selects the closed loop
// with window requests outstanding per group).
type loadPlan struct {
	rate   float64
	window int
	lead   time.Duration // unmeasured load before the window
	span   time.Duration // measured window
	drain  time.Duration // cap on the quiet tail that lets measured acks land
}

// runResult is what one client run measured.
type runResult struct {
	from, to  simnet.Time
	lat       metrics.Histogram // measured requests, due time to ack
	attempted int               // measured requests that fell due
	acked     int               // measured requests acknowledged
	lastAck   simnet.Time       // last measured ack
	ackedIDs  []uint64          // every acknowledged request, measured or not
	// events is the simulator events dispatched inside the window, and
	// checks the invariant checks observers made in it.
	events uint64
	checks uint64
	// backlog is measured requests that fell due but were not yet
	// acknowledged when the window closed.
	backlog int
	// lateness is the generator's worst firing delay behind a due time.
	lateness time.Duration

	// Host cost of the measured window: wall time, mallocs, and the live
	// heap after a forced GC with the world still referenced.
	wall    time.Duration
	mallocs uint64
	heap    uint64

	// latByID holds every measured latency by request id (traced runs
	// only), to check the trace's stage decomposition against.
	latByID map[uint64]time.Duration
	// snap holds the per-layer snapshots at from and to (traced runs only).
	snap [2]layerSnap
}

// held is a request that fell due while its ring had no serving leader.
type held struct {
	g   *group
	due simnet.Time
}

// runLoad drives plan over w and returns the measurement. Requests are
// timed from when they fell due, so a request held during an election
// carries its whole wait.
func runLoad(w *world, plan loadPlan) (*runResult, error) {
	sim := w.sim
	tr := w.tr
	start := sim.Now()
	r := &runResult{from: start.Add(plan.lead)}
	r.to = r.from.Add(plan.span)
	if tr != nil {
		r.latByID = make(map[uint64]time.Duration)
	}
	var queue []held
	retrying := false

	measured := func(due simnet.Time) bool { return due >= r.from && due < r.to }
	var fire func(g *group, due simnet.Time)
	submit := func(g *group, due simnet.Time) {
		id, p := w.nextOp(g)
		g.checker.OnBroadcast(id)
		measured := measured(due)
		if measured && tr != nil {
			tr.Instant(trace.KSubmit, -1, int64(due), int64(id), 0)
		}
		g.inst.Sys.Submit(p, func() {
			now := sim.Now()
			r.ackedIDs = append(r.ackedIDs, id)
			if measured {
				lat := now.Sub(due)
				r.lat.Add(lat)
				r.acked++
				g.acked++
				r.lastAck = now
				if tr != nil {
					tr.Instant(trace.KAck, -1, int64(now), int64(id), 0)
					r.latByID[id] = lat
				}
			}
			if plan.rate == 0 && now < r.to {
				fire(g, now)
			}
		})
	}
	var retry func()
	retry = func() {
		kept := queue[:0]
		for _, h := range queue {
			if h.g.inst.Sys.Ready() {
				submit(h.g, h.due)
			} else {
				kept = append(kept, h)
			}
		}
		queue = kept
		if retrying = len(queue) > 0; retrying {
			sim.After(holdRetry, retry)
		}
	}
	// A measured request is attempted when it falls due, held or not.
	fire = func(g *group, due simnet.Time) {
		if late := sim.Now().Sub(due); late > r.lateness {
			r.lateness = late
		}
		if measured(due) {
			r.attempted++
		}
		if !g.inst.Sys.Ready() {
			queue = append(queue, held{g, due})
			if !retrying {
				retrying = true
				sim.After(holdRetry, retry)
			}
			return
		}
		submit(g, due)
	}

	if plan.rate == 0 {
		for _, g := range w.groups {
			for i := 0; i < plan.window; i++ {
				fire(g, start)
			}
		}
	} else {
		// Independent users: each group offers rate/len(groups) as a
		// Poisson stream drawn from the seed.
		mean := float64(len(w.groups)) * 1e9 / plan.rate
		for gi, g := range w.groups {
			g := g
			rng := rand.New(rand.NewSource(w.seed*7919 + int64(gi)))
			var next func(due simnet.Time)
			next = func(due simnet.Time) {
				if due >= r.to {
					return
				}
				sim.At(due, func() {
					fire(g, due)
					next(due.Add(time.Duration(rng.ExpFloat64() * mean)))
				})
			}
			next(start.Add(time.Duration(rng.ExpFloat64() * mean)))
		}
	}
	sim.RunUntil(r.from)
	if tr != nil {
		r.snap[0] = takeSnap(w)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	events, checks := sim.Processed(), w.observerChecks()
	t0 := time.Now()
	sim.RunUntil(r.to)
	r.wall = time.Since(t0)
	r.events = sim.Processed() - events
	r.checks = w.observerChecks() - checks
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
	runtime.KeepAlive(w)
	if tr != nil {
		r.snap[1] = takeSnap(w)
	}
	r.backlog = r.attempted - r.acked
	for end := r.to.Add(plan.drain); r.acked < r.attempted && sim.Now() < end; {
		sim.RunFor(time.Millisecond)
	}
	return r, nil
}

// verify is the correctness gate of one run: every delivery passed the
// payload or kvstore check and the atomic-broadcast checker, every ring
// keeps total order and agreement over at least its acknowledged prefix,
// replicated tables agree, and no invariant observer fired.
func verify(w *world, r *runResult) error {
	if w.deliverErr != nil {
		return w.deliverErr
	}
	for _, g := range w.groups {
		if err := g.checker.CheckTotalOrder(); err != nil {
			return fmt.Errorf("pg %d: %w", g.id, err)
		}
		if err := g.checker.Agreement(1); err != nil {
			return fmt.Errorf("pg %d: %w", g.id, err)
		}
		if g.obs != nil && g.obs.ViolationCount() > 0 {
			return fmt.Errorf("pg %d: %d invariant violations:\n%s", g.id, g.obs.ViolationCount(), g.obs.Report())
		}
		if g.kv != nil {
			if err := sameTables(g); err != nil {
				return fmt.Errorf("pg %d: %w", g.id, err)
			}
		}
	}
	if err := ackedDelivered(w, r); err != nil {
		return err
	}
	if r.lateness != 0 {
		return fmt.Errorf("generator ran %v late in simulated time", r.lateness)
	}
	return nil
}

// ackedDelivered checks that every acknowledged request was delivered.
// Total order makes every replica's sequence a prefix of the longest one,
// so the longest holds every delivered request.
func ackedDelivered(w *world, r *runResult) error {
	delivered := map[uint64]bool{}
	for _, g := range w.groups {
		var longest []uint64
		for node := 0; node < groupSize; node++ {
			if seq := g.checker.Delivered(node); len(seq) > len(longest) {
				longest = seq
			}
		}
		for _, id := range longest {
			delivered[id] = true
		}
	}
	for _, id := range r.ackedIDs {
		if !delivered[id] {
			return fmt.Errorf("request %d was acknowledged but never delivered", id)
		}
	}
	return nil
}

// sameTables checks that replicas which applied the same number of ops
// hold identical tables.
func sameTables(g *group) error {
	ref := g.kv.Stores[0]
	for i, s := range g.kv.Stores[1:] {
		if s.Applied != ref.Applied {
			continue
		}
		if s.Len() != ref.Len() {
			return fmt.Errorf("replica %d holds %d keys, replica 0 holds %d after %d ops", i+1, s.Len(), ref.Len(), s.Applied)
		}
		for _, key := range g.keys {
			a, _ := ref.Get(key)
			b, _ := s.Get(key)
			if string(a) != string(b) {
				return fmt.Errorf("replica %d disagrees with replica 0 on %s after %d ops", i+1, key, s.Applied)
			}
		}
	}
	return nil
}

// fingerprint folds every replica's delivery sequence, the simulator's
// event count and the ack count into one seed-replay digest.
func fingerprint(w *world, r *runResult) uint64 {
	h := uint64(0xcbf29ce484222325)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	for _, g := range w.groups {
		for node := 0; node < groupSize; node++ {
			seq := g.checker.Delivered(node)
			fold(uint64(len(seq)))
			for _, id := range seq {
				fold(id)
			}
		}
	}
	fold(w.sim.Processed())
	fold(uint64(len(r.ackedIDs)))
	return h
}
