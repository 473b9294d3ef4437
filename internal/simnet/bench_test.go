package simnet

import (
	"testing"
	"time"

	"acuerdo/internal/trace"
)

// BenchmarkEventDispatch measures the steady-state schedule-and-run cost of
// one event on the free-list fast path (Post, no Timer handle, no tracer)
// at several pending-set sizes. The population matters: a binary heap pays
// O(log n) pointer-chasing sifts per op, so its single-event best case
// hides the cost the dense sweep profiles actually pay, while the calendar
// queue is O(1) regardless. The committed pre-calendar-queue numbers on
// this benchmark were 26ns (pending=1), 165ns (pending=1k), and 275ns
// (pending=16k) per op.
func BenchmarkEventDispatch(b *testing.B) {
	for _, bc := range benchPopulations {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			n := 0
			fn := func() { n++ }
			primePopulation(bc.pending, bc.horizon, func(at Time) { s.Post(at, fn) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Post(s.Now().Add(bc.horizon), fn)
				s.Step()
			}
		})
	}
}

// benchPopulations are the pending-set profiles both the calendar queue
// and the reference heap are measured on. pending=1 with a 1µs horizon is
// the historical benchmark shape (the heap's best case); the dense cases
// with a 2ms horizon are the profile a loaded sweep actually runs.
var benchPopulations = []struct {
	name    string
	pending int
	horizon time.Duration
}{
	{"pending=1", 1, time.Microsecond},
	{"pending=1k", 1 << 10, 2 * time.Millisecond},
	{"pending=4k", 1 << 12, 2 * time.Millisecond},
	{"pending=16k", 1 << 14, 2 * time.Millisecond},
}

// primePopulation spreads pending events over the horizon so the pending
// count holds steady throughout a measured post-one/dispatch-one loop.
func primePopulation(pending int, horizon time.Duration, post func(at Time)) {
	for i := 0; i < pending; i++ {
		d := time.Duration(1+i) * horizon / time.Duration(pending)
		post(Time(0).Add(d))
	}
}

// BenchmarkEventDispatchHeapRef runs the identical workload on the
// reference binary heap from the differential test (the pre-calendar-queue
// event core), keeping the speedup claim reproducible in-tree: compare
// against BenchmarkEventDispatch at the same population.
func BenchmarkEventDispatchHeapRef(b *testing.B) {
	for _, bc := range benchPopulations {
		b.Run(bc.name, func(b *testing.B) {
			h := newRefHeap()
			n := 0
			fn := func() { n++ }
			primePopulation(bc.pending, bc.horizon, func(at Time) { h.schedule(at, fn) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.schedule(h.now.Add(bc.horizon), fn)
				h.step()
			}
		})
	}
}

// BenchmarkEventDispatchTraced is the same fast path with a tracer
// installed: every dispatch emits a KSimEvent (ring store + fingerprint
// fold), which must stay allocation-free too.
func BenchmarkEventDispatchTraced(b *testing.B) {
	s := New(1)
	s.SetTracer(trace.New(trace.FingerprintRing))
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now().Add(time.Microsecond), fn)
		s.Step()
	}
}

// BenchmarkTimerDispatch measures the Timer-handle path (At/After) for
// comparison: it allocates the *Timer the caller can Stop.
func BenchmarkTimerDispatch(b *testing.B) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkTimerStop measures the arm-then-cancel cycle protocols run on
// every heartbeat: schedule a timer, Stop it before it fires. Stop is O(1)
// in-place under the calendar queue (the old heap paid an O(log n) remove).
func BenchmarkTimerStop(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(10*time.Millisecond, fn)
		t.Stop()
		// Keep the clock moving so cancelled slots get swept instead of
		// accumulating forever.
		if i&1023 == 1023 {
			s.RunFor(time.Microsecond)
		}
	}
}

// BenchmarkProcRun measures one unit of CPU work end to end: Run (or
// RunAt, which costs a second event for its start hop) submits it and the
// completion fires through the Proc-guarded event slot, with no wrapper
// closure.
func BenchmarkProcRun(b *testing.B) {
	b.Run("Run", func(b *testing.B) {
		s := New(1)
		p := NewProc(s, 0, "n0")
		n := 0
		fn := func() { n++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(100, fn)
			s.Step()
		}
	})
	b.Run("RunAt", func(b *testing.B) {
		s := New(1)
		p := NewProc(s, 0, "n0")
		n := 0
		fn := func() { n++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.RunAt(s.Now().Add(50), 100, fn)
			s.Step()
			s.Step()
		}
	})
}

// TestProcRunAllocFree pins steady-state CPU work at zero allocations:
// Run and RunAt with a preallocated fn (or none, or a Handler) post typed
// event slots, so nothing but the slot free list is touched.
func TestProcRunAllocFree(t *testing.T) {
	s := New(1)
	p := NewProc(s, 0, "n0")
	n := 0
	fn := func() { n++ }
	h := &countHandler{}
	work := func() {
		p.Run(100, fn)
		p.Run(100, nil)
		p.RunAt(s.Now().Add(50), 100, fn)
		p.RunAtHandler(s.Now().Add(50), 100, h)
		s.Run()
	}
	work()
	avg := testing.AllocsPerRun(200, work)
	if avg != 0 {
		t.Fatalf("steady-state Run/RunAt allocates %.1f objects/op, want 0", avg)
	}
	if want := 2 * 202; n != want || h.n != 202 {
		t.Fatalf("fn ran %d times, handler %d; want %d and 202", n, h.n, want)
	}
}

// TestEventDispatchAllocFree pins the nil-tracer fast path at zero
// allocations per dispatched event: once the free list and the bucket
// arena are primed, Post + Step must not touch the heap. This is the
// invariant the slot free-list and bucket arena exist for; a regression
// here taxes every one of the millions of events a sweep processes.
func TestEventDispatchAllocFree(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	s.Post(s.Now().Add(time.Microsecond), fn)
	s.Step()
	avg := testing.AllocsPerRun(200, func() {
		s.Post(s.Now().Add(time.Microsecond), fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state event dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestEventDispatchAllocFreeTraced pins the traced dispatch path at zero
// allocations as well: the KSimEvent emit writes a preallocated ring slot
// and folds the fingerprint, nothing else.
func TestEventDispatchAllocFreeTraced(t *testing.T) {
	s := New(1)
	s.SetTracer(trace.New(trace.FingerprintRing))
	n := 0
	fn := func() { n++ }
	s.Post(s.Now().Add(time.Microsecond), fn)
	s.Step()
	avg := testing.AllocsPerRun(200, func() {
		s.Post(s.Now().Add(time.Microsecond), fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("traced event dispatch allocates %.1f objects/op, want 0", avg)
	}
}
