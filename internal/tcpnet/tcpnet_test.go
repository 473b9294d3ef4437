package tcpnet

import (
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

func pair(seed int64, jitter bool) (*simnet.Sim, *Node, *Node) {
	sim := simnet.New(seed)
	p := DefaultParams()
	if !jitter {
		p.Jitter = nil
	}
	n := New(sim, p)
	return sim, n.AddNode("a"), n.AddNode("b")
}

// The receive span covers exactly the handler's CPU window: it starts when
// the wakeup ends (the receiver is idle), lasts RecvCost, and ends when the
// handler runs, on the receiving node.
func TestRecvTraceSpan(t *testing.T) {
	sim := simnet.New(1)
	tr := trace.New(1 << 10)
	sim.SetTracer(tr)
	p := DefaultParams()
	p.Jitter = nil
	n := New(sim, p)
	a, b := n.AddNode("a"), n.AddNode("b")
	var ranAt simnet.Time
	a.Connect(b, func(m []byte) { ranAt = sim.Now() }).Send([]byte("hello"))
	sim.RunFor(time.Millisecond)
	var wake, recv []trace.Event
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KTCPWakeup:
			wake = append(wake, ev)
		case trace.KTCPRecv:
			recv = append(recv, ev)
		}
	}
	if len(wake) != 1 || len(recv) != 1 {
		t.Fatalf("got %d wakeup and %d recv spans, want 1 each", len(wake), len(recv))
	}
	w, r := wake[0], recv[0]
	if r.Node != int32(b.ID) || r.Dur != int64(p.RecvCost) || r.A != 5 || r.B != 0 {
		t.Fatalf("recv span = %+v, want node %d, dur %d, A 5", r, b.ID, p.RecvCost)
	}
	if r.TS != w.TS+w.Dur || r.TS+r.Dur != int64(ranAt) {
		t.Fatalf("recv span [%d, %d) does not run from wakeup end %d to handler time %d", r.TS, r.TS+r.Dur, w.TS+w.Dur, ranAt)
	}
}

func TestDelivery(t *testing.T) {
	sim, a, b := pair(1, false)
	var got []byte
	conn := a.Connect(b, func(m []byte) { got = append([]byte(nil), m...) })
	conn.Send([]byte("hello"))
	sim.RunFor(time.Millisecond)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestLatencyIncludesKernelPath(t *testing.T) {
	sim, a, b := pair(1, false)
	var at simnet.Time
	conn := a.Connect(b, func(m []byte) { at = sim.Now() })
	conn.Send([]byte("x"))
	sim.RunFor(time.Millisecond)
	lat := at.Duration()
	// syscall(2.5) + 2*kernel(12) + wire(~1) + wakeup(4) + recv(1.5) ~ 21us.
	if lat < 15*time.Microsecond || lat > 35*time.Microsecond {
		t.Fatalf("TCP one-way latency = %v, want ~20us", lat)
	}
}

func TestFIFO(t *testing.T) {
	sim, a, b := pair(2, true)
	var got []byte
	conn := a.Connect(b, func(m []byte) { got = append(got, m[0]) })
	for i := 0; i < 100; i++ {
		conn.Send([]byte{byte(i)})
	}
	sim.RunFor(10 * time.Millisecond)
	if len(got) != 100 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestReceiverCPURequired(t *testing.T) {
	// In contrast to RDMA: a descheduled receiver delays delivery.
	sim, a, b := pair(3, false)
	b.Proc.Pause(500 * time.Microsecond)
	var at simnet.Time
	conn := a.Connect(b, func(m []byte) { at = sim.Now() })
	conn.Send([]byte("x"))
	sim.RunFor(time.Millisecond)
	if at.Duration() < 500*time.Microsecond {
		t.Fatalf("delivery at %v did not wait for receiver CPU", at)
	}
}

func TestCrashDropsDelivery(t *testing.T) {
	sim, a, b := pair(4, false)
	got := false
	conn := a.Connect(b, func(m []byte) { got = true })
	b.Crash()
	conn.Send([]byte("x"))
	sim.RunFor(time.Millisecond)
	if got {
		t.Fatal("delivered to crashed node")
	}
}

func TestSenderCrashStopsSends(t *testing.T) {
	sim, a, b := pair(5, false)
	got := 0
	conn := a.Connect(b, func(m []byte) { got++ })
	conn.Send([]byte{1})
	a.Crash()
	conn.Send([]byte{2})
	sim.RunFor(time.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
}

func TestFIFOProperty(t *testing.T) {
	f := func(vals []byte) bool {
		sim, a, b := pair(6, true)
		var got []byte
		conn := a.Connect(b, func(m []byte) { got = append(got, m...) })
		for _, v := range vals {
			conn.Send([]byte{v})
		}
		sim.RunFor(50 * time.Millisecond)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	sim, a, b := pair(7, false)
	var last simnet.Time
	conn := a.Connect(b, func(m []byte) { last = sim.Now() })
	const n = 200
	for i := 0; i < n; i++ {
		conn.Send(make([]byte, 10000))
	}
	sim.RunFor(100 * time.Millisecond)
	floor := time.Duration(float64(n*10066) / 3.125e9 * 1e9)
	if last.Duration() < floor {
		t.Fatalf("finished in %v, below serialization floor %v", last.Duration(), floor)
	}
}
