package rdma

import (
	"bytes"
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// BenchmarkWRPost measures the post-write-deliver cycle of one unsignaled
// RDMA write: verb post, wire-frame checkout from the fabric's free-list,
// delivery into the remote MR, and frame recycle. Allocation count is the
// headline number — the wire frame itself must come from the free-list.
func BenchmarkWRPost(b *testing.B) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src := f.AddNode("src")
	dst := f.AddNode("dst")
	cq := NewCQ()
	qp := src.Connect(dst, cq)
	mr := dst.RegisterMemory(4096)
	data := make([]byte, 64)

	// Prime the frame free-list and the event heap.
	if _, err := qp.Write(mr, 0, data); err != nil {
		b.Fatal(err)
	}
	sim.RunFor(25 * time.Microsecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Write(mr, 0, data); err != nil {
			b.Fatal(err)
		}
		sim.RunFor(25 * time.Microsecond)
	}
}

// BenchmarkWRPostSignaled includes completion generation and CQ polling.
func BenchmarkWRPostSignaled(b *testing.B) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src := f.AddNode("src")
	dst := f.AddNode("dst")
	cq := NewCQ()
	qp := src.Connect(dst, cq)
	mr := dst.RegisterMemory(4096)
	data := make([]byte, 64)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.WriteSignaled(mr, 0, data); err != nil {
			b.Fatal(err)
		}
		sim.RunFor(25 * time.Microsecond)
		if got := len(cq.Poll()); got != 1 {
			b.Fatalf("polled %d completions, want 1", got)
		}
	}
}

// TestWriteAllocFree pins the unsignaled post→deliver→recycle cycle at zero
// allocations: the post cost is a typed Proc event, the delivery a pooled
// verb record, and the wire frame comes from the fabric's free list.
func TestWriteAllocFree(t *testing.T) {
	sim := simnet.New(1)
	f := NewFabric(sim, DefaultParams())
	src, dst := f.AddNode("src"), f.AddNode("dst")
	qp := src.Connect(dst, NewCQ())
	qp.SignalEvery = 0
	mr := dst.RegisterMemory(4096)
	data := make([]byte, 64)
	write := func() {
		if _, err := qp.Write(mr, 0, data); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(25 * time.Microsecond)
	}
	write()
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Fatalf("unsignaled write allocates %.1f objects/op, want 0", avg)
	}
}

// A write that reaches a crashed node is dropped, but its wire frame and
// its verb record still go back to the fabric's free lists; a signaled one
// also recycles the record of its error completion.
func TestWriteToCrashedNodeRecycles(t *testing.T) {
	sim, f := testFabric(2)
	src, dst := f.Node(0), f.Node(1)
	cq := NewCQ()
	qp := src.Connect(dst, cq)
	qp.SignalEvery = 0
	mr := dst.RegisterMemory(64)
	if _, err := qp.Write(mr, 0, []byte("prime")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(25 * time.Microsecond)
	frames, records := len(f.bufFree), len(f.evFree)
	if frames != 1 || records != 1 {
		t.Fatalf("after one delivery: %d frames, %d records free; want 1 and 1", frames, records)
	}

	dst.Crash()
	if _, err := qp.Write(mr, 8, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if len(f.bufFree) != 0 || len(f.evFree) != 0 {
		t.Fatal("in-flight write did not take its frame and record from the free lists")
	}
	sim.RunFor(25 * time.Microsecond)
	if len(f.bufFree) != frames || len(f.evFree) != records {
		t.Fatalf("after a drop: %d frames, %d records free; want %d and %d", len(f.bufFree), len(f.evFree), frames, records)
	}
	if !bytes.Equal(mr.Buf[8:12], make([]byte, 4)) {
		t.Fatalf("write landed in a crashed node's memory: %q", mr.Buf[8:12])
	}

	if _, err := qp.WriteSignaled(mr, 8, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(f.Params.RetryTimeout + 25*time.Microsecond)
	if len(f.bufFree) != frames || len(f.evFree) != records {
		t.Fatalf("after a flushed completion: %d frames, %d records free; want %d and %d", len(f.bufFree), len(f.evFree), frames, records)
	}
	if c := cq.Poll(); len(c) != 1 || c[0].Status != Flushed {
		t.Fatalf("completions = %+v, want one Flushed", c)
	}
}
