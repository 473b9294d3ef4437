package tcpnet

import (
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// BenchmarkTCPSend measures one send-deliver cycle over the simulated
// kernel-TCP transport: frame checkout from the net's free-list, the
// send/kernel/wire/wakeup event chain, handler dispatch, and frame recycle.
func BenchmarkTCPSend(b *testing.B) {
	sim := simnet.New(1)
	n := New(sim, DefaultParams())
	src := n.AddNode("src")
	dst := n.AddNode("dst")
	delivered := 0
	conn := src.Connect(dst, func(m []byte) { delivered++ })
	msg := make([]byte, 64)

	// Prime the frame free-list and the event heap.
	conn.Send(msg)
	sim.RunFor(time.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Send(msg)
		sim.RunFor(500 * time.Microsecond)
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d messages, want %d", delivered, b.N+1)
	}
}

// TestSendAllocFree pins the steady-state send→deliver cycle at zero
// allocations: the send syscall is a typed Proc event, the receive a pooled
// record run through Proc.RunAtHandler, and the frame a free-list buffer.
func TestSendAllocFree(t *testing.T) {
	sim := simnet.New(1)
	n := New(sim, DefaultParams())
	src, dst := n.AddNode("src"), n.AddNode("dst")
	delivered := 0
	conn := src.Connect(dst, func(m []byte) { delivered++ })
	msg := make([]byte, 64)
	send := func() {
		conn.Send(msg)
		sim.RunFor(500 * time.Microsecond)
	}
	send()
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("send→deliver allocates %.1f objects/op, want 0", avg)
	}
	if delivered != 202 {
		t.Fatalf("delivered %d messages, want 202", delivered)
	}
}
