package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/bench"
	"acuerdo/internal/kvstore"
	"acuerdo/internal/observe"
	"acuerdo/internal/placement"
	"acuerdo/internal/raft"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/ycsb"
)

// groupSize is the replica count of every ring the benchmark builds.
const groupSize = 3

// fleetProcBase offsets fleet CPU ids above every interconnect node id, so
// shared fleet cores never collide with per-ring node processes.
const fleetProcBase = 1 << 20

// world is one booted simulation: one ring, or a placement map's worth of
// rings on a shared fabric and fleet, each with its own safety checker.
type world struct {
	sp     *spec
	seed   int64
	sim    *simnet.Sim
	tr     *trace.Tracer
	groups []*group
	pmap   *placement.Map
	fabric *rdma.Fabric // shared by every ring of a placement map

	// Host set-up cost: building (placement map, fabric, MR registration,
	// instances) and warming up until every ring has a leader.
	placementBuild time.Duration
	build, warm    time.Duration

	// hostTiming enables the benchmark's own per-layer host timers around
	// the generator, the kvstore apply and the checker (traced runs only).
	hostTiming                bool
	genNS, applyNS, checkNS   int64
	genCalls, applies, checks int64

	// deliverErr is the first bad delivery: a corrupt payload, an op the
	// kvstore rejects, or an atomic-broadcast violation.
	deliverErr error
}

// group is one ring: its instance, checker, optional replicated table and
// the input generator of its client.
type group struct {
	id      int
	inst    *bench.Instance
	obs     *observe.Observer
	checker *abcast.Checker
	kv      *kvstore.Replicated

	// YCSB stream over the group's own key shard.
	keys []string
	zipf *ycsb.Zipfian
	rng  *rand.Rand

	nextID uint64
	acked  int // measured ops acknowledged
}

// payloadByte is the content of byte j of broadcast payload id: a seeded
// hash, so delivery can verify every byte without storing what was sent.
func payloadByte(seed int64, id uint64, j int) byte {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ id*0xbf58476d1ce4e5b9 ^ uint64(j)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return byte(h)
}

// newWorld builds sp's simulation from seed and warms it up until every
// ring has a leader. tr, when non-nil, is installed before anything is
// built; observed attaches an invariant observer to every ring.
func newWorld(sp *spec, seed int64, tr *trace.Tracer, observed bool) (*world, error) {
	t0 := time.Now()
	sim := simnet.New(seed)
	if tr != nil {
		// Installed before the observers so violations land in the trace.
		sim.SetTracer(tr)
	}
	w := &world{sp: sp, seed: seed, sim: sim, tr: tr}
	opt := bench.Options{Tracer: tr, Durability: sp.durability}
	newGroup := func(o bench.Options) *group {
		g := &group{id: len(w.groups), checker: abcast.NewChecker(groupSize)}
		if observed {
			g.obs = bench.NewObserver(sim, sp.kind, groupSize)
			o.Observer = g.obs
		}
		g.inst = bench.NewInstanceOn(sim, sp.kind, groupSize, o)
		w.groups = append(w.groups, g)
		return g
	}
	if sp.pgs == 0 {
		newGroup(opt)
	} else {
		pt := time.Now()
		m, err := placement.Build(placement.DefaultConfig(sp.pgs))
		w.placementBuild = time.Since(pt)
		if err != nil {
			return nil, err
		}
		w.pmap = m
		w.fabric = rdma.NewFabric(sim, rdma.DefaultParams())
		opt.SharedFabric = w.fabric
		fleet := make([]*simnet.Proc, m.Config.Fleet)
		for k := range fleet {
			fleet[k] = simnet.NewProc(sim, fleetProcBase+k, fmt.Sprintf("fleet%d", k))
		}
		for _, pg := range m.Groups {
			o := opt
			o.ReplicaProcs = make([]*simnet.Proc, len(pg.Members))
			for i, n := range pg.Members {
				o.ReplicaProcs[i] = fleet[n]
			}
			newGroup(o)
		}
		if err := w.shardKeys(); err != nil {
			return nil, err
		}
	}
	for _, g := range w.groups {
		if err := w.hookDeliveries(g); err != nil {
			return nil, err
		}
	}
	w.build = time.Since(t0)
	t1 := time.Now()
	for i := 0; i < 400 && !w.ready(); i++ {
		sim.RunFor(5 * time.Millisecond)
	}
	if !w.ready() {
		return nil, fmt.Errorf("%s: a ring never elected a leader", sp.name)
	}
	w.warm = time.Since(t1)
	return w, nil
}

// shardKeys splits the YCSB keyspace by the map's key routing and gives
// every group a zipfian stream over its own shard, seeded from (seed, pg).
func (w *world) shardKeys() error {
	sp := w.sp
	for i := uint64(0); i < sp.records; i++ {
		key := fmt.Sprintf("user%016d", i)
		g := w.groups[w.pmap.KeyPG(key)]
		g.keys = append(g.keys, key)
	}
	for _, g := range w.groups {
		if len(g.keys) == 0 {
			return fmt.Errorf("%s: pg %d owns no keys", sp.name, g.id)
		}
		g.zipf = ycsb.NewZipfian(uint64(len(g.keys)), 0.99)
		g.rng = rand.New(rand.NewSource(w.seed*1000003 + int64(g.id+1)))
		g.kv = kvstore.NewReplicated(g.inst.Sys, groupSize)
	}
	return nil
}

// hookDeliveries routes every replica's deliveries of g through the
// public OnDeliver hook into the kvstore (YCSB) or the payload check, and
// into the group's safety checker.
func (w *world) hookDeliveries(g *group) error {
	deliver := func(replica int, payload []byte) {
		var t time.Time
		if g.kv != nil {
			if w.hostTiming {
				t = time.Now()
			}
			if err := g.kv.ApplyAt(replica, payload); err != nil {
				w.fail(fmt.Errorf("pg %d replica %d: %w", g.id, replica, err))
			}
			if w.hostTiming {
				w.applyNS += int64(time.Since(t))
				w.applies++
			}
		} else if err := w.checkPayload(payload); err != nil {
			w.fail(fmt.Errorf("replica %d: %w", replica, err))
		}
		if w.hostTiming {
			t = time.Now()
		}
		if err := g.checker.OnDeliver(replica, abcast.MsgID(payload)); err != nil {
			w.fail(fmt.Errorf("pg %d: %w", g.id, err))
		}
		if w.hostTiming {
			w.checkNS += int64(time.Since(t))
			w.checks++
		}
	}
	switch c := g.inst.Sys.(type) {
	case *acuerdo.Cluster:
		c.OnDeliver = func(replica int, _ acuerdo.MsgHdr, payload []byte) { deliver(replica, payload) }
	case *raft.Cluster:
		c.OnDeliver = func(replica, _ int, payload []byte) { deliver(replica, payload) }
	default:
		return fmt.Errorf("%s: no delivery hook for %s", w.sp.name, g.inst.Sys.Name())
	}
	return nil
}

// checkPayload verifies a delivered broadcast payload byte for byte.
func (w *world) checkPayload(p []byte) error {
	if len(p) != w.sp.payload {
		return fmt.Errorf("delivered a %d-byte payload, sent %d", len(p), w.sp.payload)
	}
	id := abcast.MsgID(p)
	for j := 8; j < len(p); j++ {
		if p[j] != payloadByte(w.seed, id, j) {
			return fmt.Errorf("payload %d corrupted at byte %d", id, j)
		}
	}
	return nil
}

func (w *world) fail(err error) {
	if w.deliverErr == nil {
		w.deliverErr = err
	}
}

func (w *world) observerChecks() uint64 {
	var n uint64
	for _, g := range w.groups {
		n += g.obs.Checks()
	}
	return n
}

func (w *world) ready() bool {
	for _, g := range w.groups {
		if !g.inst.Sys.Ready() {
			return false
		}
	}
	return true
}

// nextOp draws g's next request and returns its id, unique across groups
// so trace stage markers never collide, and its encoded payload.
func (w *world) nextOp(g *group) (uint64, []byte) {
	var t time.Time
	if w.hostTiming {
		t = time.Now()
	}
	g.nextID++
	id := uint64(g.id)<<40 | g.nextID
	var p []byte
	if g.kv != nil {
		key := g.keys[g.zipf.Next(g.rng)%uint64(len(g.keys))]
		value := make([]byte, w.sp.value)
		g.rng.Read(value)
		p = kvstore.Op{ID: id, Kind: kvstore.OpSet, Key: key, Value: value}.Encode()
	} else {
		p = make([]byte, w.sp.payload)
		binary.LittleEndian.PutUint64(p, id)
		for j := 8; j < len(p); j++ {
			p[j] = payloadByte(w.seed, id, j)
		}
	}
	if w.hostTiming {
		w.genNS += int64(time.Since(t))
		w.genCalls++
	}
	return id, p
}

// close returns the worlds' registered fabric memory to its free lists;
// a shared fabric is released once, by the world that owns it.
func (w *world) close() {
	if w.fabric != nil {
		w.fabric.Release()
		return
	}
	for _, g := range w.groups {
		g.inst.Close()
	}
}
