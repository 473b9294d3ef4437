package ringbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

func setup(nPeers int, cfg Config) (*simnet.Sim, *Sender, []*Receiver, *rdma.Fabric) {
	sim := simnet.New(1)
	p := rdma.DefaultParams()
	p.LinkJitter = nil
	f := rdma.NewFabric(sim, p)
	sender := f.AddNode("sender")
	s := NewSender(sender, cfg)
	recvs := make([]*Receiver, nPeers)
	for i := 0; i < nPeers; i++ {
		recvs[i] = s.AddPeer(f.AddNode(fmt.Sprintf("r%d", i)))
	}
	return sim, s, recvs, f
}

func TestSendReceive(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	want := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	for _, m := range want {
		if _, err := s.Send(recvs[0].mr.Node.ID, m); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Millisecond)
	got := recvs[0].Poll(0)
	if len(got) != len(want) {
		t.Fatalf("received %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("msg %d = %q, want %q", i, got[i], want[i])
		}
	}
	if recvs[0].Consumed() != 3 {
		t.Fatalf("consumed = %d", recvs[0].Consumed())
	}
}

func TestBroadcast(t *testing.T) {
	sim, s, recvs, _ := setup(3, DefaultConfig())
	idx, err := s.Broadcast([]byte("hello"))
	if err != nil || idx != 1 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	sim.RunFor(time.Millisecond)
	for i, r := range recvs {
		got := r.Poll(0)
		if len(got) != 1 || string(got[0]) != "hello" {
			t.Fatalf("receiver %d got %q", i, got)
		}
	}
}

func TestReceiverSideBatching(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	for i := 0; i < 50; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	// One poll drains the whole accumulated batch.
	got := recvs[0].Poll(0)
	if len(got) != 50 {
		t.Fatalf("batch = %d, want 50", len(got))
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, m[0])
		}
	}
}

func TestPollLimit(t *testing.T) {
	sim, s, recvs, _ := setup(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	if got := recvs[0].Poll(4); len(got) != 4 {
		t.Fatalf("limited poll = %d, want 4", len(got))
	}
	if got := recvs[0].Poll(0); len(got) != 6 {
		t.Fatalf("second poll = %d, want 6", len(got))
	}
}

func TestWraparound(t *testing.T) {
	cfg := Config{Bytes: 256, Backlog: false}
	sim, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	// Repeatedly fill and drain so the write offset laps the ring many times.
	total := 0
	for round := 0; round < 40; round++ {
		sent := 0
		for {
			msg := []byte{byte(total % 251), byte(total >> 8), byte(total >> 16)}
			if _, err := s.Send(id, msg); err == ErrRingFull {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			total++
			sent++
		}
		if sent == 0 {
			t.Fatal("ring full immediately")
		}
		sim.RunFor(time.Millisecond)
		got := recvs[0].Poll(0)
		if len(got) != sent {
			t.Fatalf("round %d: got %d, want %d", round, len(got), sent)
		}
		s.Release(id, recvs[0].Consumed())
	}
	if total < 100 {
		t.Fatalf("too few messages exercised: %d", total)
	}
}

func TestRingFullWithoutBacklog(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: false}
	_, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	var err error
	for i := 0; i < 100; i++ {
		if _, err = s.Send(id, make([]byte, 20)); err != nil {
			break
		}
	}
	if err != ErrRingFull {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
}

func TestBacklogFlushOnRelease(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: true}
	sim, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	for i := 0; i < 30; i++ {
		if _, err := s.Send(id, []byte{byte(i), 0, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Backlogged(id) == 0 {
		t.Fatal("expected backlog on tiny ring")
	}
	var all [][]byte
	for i := 0; i < 50 && len(all) < 30; i++ {
		sim.RunFor(time.Millisecond)
		all = append(all, recvs[0].Poll(0)...)
		s.Release(id, recvs[0].Consumed())
	}
	if len(all) != 30 {
		t.Fatalf("delivered %d, want 30 (backlog must flush)", len(all))
	}
	for i, m := range all {
		if m[0] != byte(i) {
			t.Fatalf("order violated at %d: %d", i, m[0])
		}
	}
}

func TestTooLarge(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: true}
	_, s, recvs, _ := setup(1, cfg)
	if _, err := s.Send(recvs[0].mr.Node.ID, make([]byte, 100)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTwoWriteMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TwoWrite = true
	sim, s, recvs, f := setup(1, cfg)
	sender := f.Node(0)
	for i := 0; i < 10; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	got := recvs[0].Poll(0)
	if len(got) != 10 {
		t.Fatalf("two-write delivery = %d, want 10", len(got))
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("order violated: %v", got)
		}
	}
	// Two verbs per message (the Derecho cost the paper calls out).
	if sender.Writes != 20 {
		t.Fatalf("writes = %d, want 20", sender.Writes)
	}
}

func TestSingleWriteVerbCount(t *testing.T) {
	sim, s, recvs, f := setup(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Send(recvs[0].mr.Node.ID, []byte{byte(i)})
	}
	sim.RunFor(time.Millisecond)
	recvs[0].Poll(0)
	if f.Node(0).Writes != 10 {
		t.Fatalf("writes = %d, want 10 (one verb per message)", f.Node(0).Writes)
	}
}

func TestUnknownPeer(t *testing.T) {
	_, s, _, _ := setup(1, DefaultConfig())
	if _, err := s.Send(99, []byte{1}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestCanSend(t *testing.T) {
	cfg := Config{Bytes: 128, Backlog: false}
	_, s, recvs, _ := setup(1, cfg)
	id := recvs[0].mr.Node.ID
	if !s.CanSend(id, 20) {
		t.Fatal("fresh ring reports full")
	}
	for {
		if _, err := s.Send(id, make([]byte, 20)); err != nil {
			break
		}
	}
	if s.CanSend(id, 20) {
		t.Fatal("full ring reports sendable")
	}
}

func TestExactlyOnceInOrderProperty(t *testing.T) {
	// Property: any sequence of variable-size messages through a small
	// ring (with drains and releases interleaved) arrives exactly once,
	// in order, regardless of wrap positions.
	check := func(sizes []uint8, drainEvery uint8) bool {
		de := int(drainEvery)%7 + 1
		sim := simnet.New(3)
		p := rdma.DefaultParams()
		f := rdma.NewFabric(sim, p)
		s := NewSender(f.AddNode("s"), Config{Bytes: 512, Backlog: true})
		r := s.AddPeer(f.AddNode("r"))
		id := 1
		var got [][]byte
		var want [][]byte
		for i, sz := range sizes {
			msg := make([]byte, int(sz)%200+1)
			msg[0] = byte(i)
			want = append(want, msg)
			if _, err := s.Send(id, msg); err != nil {
				return false
			}
			if i%de == 0 {
				sim.RunFor(100 * time.Microsecond)
				got = append(got, r.Poll(0)...)
				s.Release(id, r.Consumed())
			}
		}
		for i := 0; i < 100 && len(got) < len(want); i++ {
			sim.RunFor(time.Millisecond)
			got = append(got, r.Poll(0)...)
			s.Release(id, r.Consumed())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state Broadcast + Poll allocates only the payload copies Poll hands
// out: the record is encoded into the sender's scratch buffer, the write is
// a pooled verb event, the in-flight queue compacts in place, and Poll
// reuses its result slice.
func TestSteadyStateAllocsOnlyPayloadCopies(t *testing.T) {
	sim, s, recvs, _ := setup(2, DefaultConfig())
	payload := make([]byte, 32)
	const ops = 50
	round := func() {
		for i := 0; i < ops; i++ {
			idx, err := s.Broadcast(payload)
			if err != nil {
				t.Fatal(err)
			}
			sim.RunFor(5 * time.Microsecond)
			for j, r := range recvs {
				if got := r.Poll(0); len(got) != 1 {
					t.Fatalf("receiver %d polled %d records, want 1", j, len(got))
				}
				s.Release(s.ids[j], idx)
			}
		}
	}
	// Warm up past a wrap so every buffer has reached its steady size.
	for i := 0; i < (1<<20)/(ops*(headerSize+len(payload)))+2; i++ {
		round()
	}
	// AllocsPerRun truncates to whole objects per run, which absorbs the
	// rare growth of the never-drained completion queues (one signaled
	// write per thousand).
	if got, want := testing.AllocsPerRun(20, round), float64(ops*len(recvs)); got != want {
		t.Fatalf("%d Broadcast+Poll rounds allocate %.0f objects, want %.0f (one payload copy per receiver)", ops, got, want)
	}
}

// In two-write mode the payload write must carry a zero sequence word, so
// the record stays invisible until its counter write lands. The sender
// encodes into a reused scratch buffer, so a stale sequence left in it would
// publish records early; this drives the sim to the instant between the two
// writes of a record emitted after the ring has wrapped many times.
func TestTwoWriteScratchNeverPublishesEarly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TwoWrite = true
	cfg.Bytes = 1024
	sim, s, recvs, _ := setup(1, cfg)
	to := s.ids[0]
	ps := s.peer[to]
	filler := bytes.Repeat([]byte{'a'}, 20)
	for i := 0; i < 500; i++ {
		idx, err := s.Send(to, filler)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunFor(10 * time.Microsecond)
		if got := recvs[0].Poll(0); len(got) != 1 {
			t.Fatalf("record %d: polled %d, want 1", i, len(got))
		}
		s.Release(to, idx)
	}

	target := []byte("target-record")
	off, _ := s.placement(ps, headerSize+len(target))
	if _, err := s.Send(to, target); err != nil {
		t.Fatal(err)
	}
	ring := recvs[0].mr.Buf
	for !bytes.Equal(ring[off+headerSize:off+headerSize+len(target)], target) {
		if !sim.Step() {
			t.Fatal("payload write never landed")
		}
	}
	if seq := binary.LittleEndian.Uint64(ring[off:]); seq != 0 {
		t.Fatalf("sequence word after the payload write = %d, want 0", seq)
	}
	if got := recvs[0].Poll(0); len(got) != 0 {
		t.Fatalf("record published before its counter write: %q", got)
	}
	sim.RunFor(10 * time.Microsecond)
	if got := recvs[0].Poll(0); len(got) != 1 || !bytes.Equal(got[0], target) {
		t.Fatalf("after the counter write polled %q, want [%q]", got, target)
	}
}
