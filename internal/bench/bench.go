// Package bench is the experiment harness that regenerates every table and
// figure in the paper's evaluation (§4): the latency/throughput curves of
// Figure 8, the election durations of Table 1, and the YCSB-load comparison
// of Figure 9. See DESIGN.md's per-experiment index.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/apus"
	"acuerdo/internal/derecho"
	"acuerdo/internal/disk"
	"acuerdo/internal/observe"
	"acuerdo/internal/paxos"
	"acuerdo/internal/raft"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sweep"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/zab"
)

// Kind names one of the seven evaluated systems.
type Kind string

// The systems of Figure 8, in the paper's legend order.
const (
	Acuerdo       Kind = "acuerdo"
	DerechoAll    Kind = "derecho-all"
	DerechoLeader Kind = "derecho-leader"
	Etcd          Kind = "etcd"
	Libpaxos      Kind = "libpaxos"
	Zookeeper     Kind = "zookeeper"
	Apus          Kind = "apus"
)

// AllKinds lists every system in the Figure 8 comparison.
var AllKinds = []Kind{Acuerdo, DerechoAll, DerechoLeader, Etcd, Libpaxos, Zookeeper, Apus}

// Durability selects the storage model an instance boots with.
type Durability string

// The three storage models of the durability comparison. Volatile is the
// legacy in-memory model; Durable gives every replica a simulated disk it
// recovers from after a crash; Amnesia gives the same disks but wipes the
// victim's disk at every crash — the node rejoins with nothing and refetches
// everything over the interconnect, the worst-case recovery-bytes baseline.
const (
	Volatile Durability = ""
	Durable  Durability = "durable"
	Amnesia  Durability = "amnesia"
)

// DurabilitySupported reports whether kind has a durable storage mode, that
// is, whether its cluster implements durable. Derecho and APUS keep their
// paper-faithful volatile model: they are comparison baselines whose
// recovery story the paper does not extend, and NewInstanceOn rejects a
// durable or amnesia run on them.
func DurabilitySupported(kind Kind) bool {
	switch kind {
	case Acuerdo, Etcd, Libpaxos, Zookeeper:
		return true
	}
	return false
}

// cluster is the contract every benched system implements: the load
// interface plus observer wiring, boot, leader lookup, and the system's own
// crash and recovery paths, all in replica-index space.
type cluster interface {
	abcast.System
	SetObserver(o *observe.Observer)
	Start()
	LeaderIdx() int
	Crash(i int)
	Restart(i int)
}

// durable is implemented by the clusters with a disk-backed storage mode
// (DurabilitySupported): SetDisks switches them to it before Start.
type durable interface {
	SetDisks(devs []*disk.Device)
	DiskRecoveredBytes() int64
	FabricRecoveryBytes() int64
}

// interconnect is the fault surface *rdma.Fabric and *tcpnet.Net share,
// addressed by interconnect node id.
type interconnect interface {
	ProvideProcs(procs []*simnet.Proc)
	PartitionOneWay(a, b int)
	HealOneWay(a, b int)
	SetLoss(a, b int, p float64)
	SetLatencySpike(a, b int, d time.Duration)
}

// Instance is one booted system ready for load.
type Instance struct {
	Sim *simnet.Sim
	Sys abcast.System
	N   int

	// Disks holds one simulated device per replica when the instance was
	// built with Options.Durability != Volatile; nil otherwise. The chaos
	// adapter drives its stall/torn/corrupt/full surface.
	Disks []*disk.Device

	// cluster is Sys's control surface; net is the interconnect it runs on.
	cluster cluster
	net     interconnect

	// sharedInterconnect marks instances built on Options.SharedFabric or
	// Options.SharedNet: Close must not release an interconnect other
	// instances still run on (the owner releases it once).
	sharedInterconnect bool
}

// DiskRecoveredBytes sums bytes read back from local disks during crash
// recovery across the group; zero on volatile instances.
func (inst *Instance) DiskRecoveredBytes() int64 {
	if inst.Disks == nil {
		return 0
	}
	return inst.cluster.(durable).DiskRecoveredBytes()
}

// FabricRecoveryBytes sums payload bytes re-shipped over the interconnect to
// refill crash-lost state across the group; zero on volatile instances.
func (inst *Instance) FabricRecoveryBytes() int64 {
	if inst.Disks == nil {
		return 0
	}
	return inst.cluster.(durable).FabricRecoveryBytes()
}

// DurableDigest folds every device's durable-content digest into one value:
// two same-seed durable runs must match bit for bit. Zero on volatile
// instances.
func (inst *Instance) DurableDigest() uint64 {
	var d uint64
	for _, dev := range inst.Disks {
		d = d*1099511628211 ^ dev.Digest()
	}
	return d
}

// Close returns the instance's pooled resources (registered RDMA regions)
// to their process-wide free lists. The instance must not be stepped,
// polled, or measured afterwards. Harnesses that build one instance per
// point call this between points; leaving an instance unclosed is safe,
// it just forgoes the reuse. Instances on a shared interconnect
// (Options.SharedFabric) skip the release — the interconnect's owner
// releases it once, after every instance on it is done.
func (inst *Instance) Close() {
	if !inst.sharedInterconnect {
		release(inst.net)
	}
}

// release returns a fabric's registered regions to their free lists; TCP
// networks hold no pooled resources.
func release(net interconnect) {
	if r, ok := net.(interface{ Release() }); ok {
		r.Release()
	}
}

// replicaNode returns replica i's interconnect node id and CPU.
func replicaNode(sys abcast.System, i int) (int, *simnet.Proc) {
	switch c := sys.(type) {
	case *acuerdo.Cluster:
		return c.Replicas[i].Node.ID, c.Replicas[i].Node.Proc
	case *derecho.Cluster:
		return c.Group.Node(i).ID, c.Group.Node(i).Proc
	case interface{ Node(int) *rdma.Node }: // apus
		return c.Node(i).ID, c.Node(i).Proc
	case interface{ Node(int) *tcpnet.Node }: // libpaxos, zookeeper, etcd
		return c.Node(i).ID, c.Node(i).Proc
	}
	panic("bench: no replica nodes on " + sys.Name())
}

// setApply installs a per-replica delivery hook (payload only) on the
// instance's system, replacing any previous one.
func (inst *Instance) setApply(apply func(replica int, payload []byte)) {
	switch c := inst.Sys.(type) {
	case *acuerdo.Cluster:
		c.OnDeliver = func(replica int, _ acuerdo.MsgHdr, payload []byte) { apply(replica, payload) }
	case *derecho.Cluster:
		c.OnDeliver = func(replica, _ int, _ uint64, payload []byte) { apply(replica, payload) }
	case *apus.Cluster:
		c.OnDeliver = func(replica int, _ uint64, payload []byte) { apply(replica, payload) }
	case *paxos.Cluster:
		c.OnDeliver = func(replica int, _ uint64, payload []byte) { apply(replica, payload) }
	case *zab.Cluster:
		c.OnDeliver = func(replica int, _ uint64, payload []byte) { apply(replica, payload) }
	case *raft.Cluster:
		c.OnDeliver = func(replica, _ int, payload []byte) { apply(replica, payload) }
	}
}

// Options tweaks instance construction.
type Options struct {
	// Desched injects scheduler noise into every replica (Acuerdo only;
	// used by the Table 1 experiment).
	Desched *simnet.DeschedConfig
	// AcuerdoConfig overrides the replica config (ablations).
	AcuerdoConfig *acuerdo.Config
	// Tracer, when non-nil, is installed on the simulator before the system
	// is built so that construction-time events (thread names, first
	// elections) are captured too.
	Tracer *trace.Tracer
	// Observer, when non-nil, is attached to the system before it starts,
	// so runtime invariant checking covers the first election onward. The
	// instance then also satisfies abcast.Observed, which folds the
	// observer digest into seed-replay fingerprints.
	Observer *observe.Observer
	// Durability selects the storage model (Volatile, Durable, Amnesia).
	// Non-volatile modes give every replica a simulated disk; they are
	// only defined for systems with a durable path (DurabilitySupported),
	// and NewInstanceOn panics when asked for one on any other system.
	Durability Durability
	// DiskParams overrides the device model (nil = disk.DefaultParams).
	DiskParams *disk.Params
	// SharedFabric, when non-nil, hosts the instance on an existing RDMA
	// fabric instead of a private one, so many instances — one broadcast
	// ring per placement group — contend on one interconnect. Ignored by
	// the TCP-based systems (etcd, zookeeper, libpaxos).
	SharedFabric *rdma.Fabric
	// SharedNet is SharedFabric's counterpart for the TCP-based systems;
	// ignored by the RDMA-based ones.
	SharedNet *tcpnet.Net
	// ReplicaProcs, when non-nil, backs the instance's replica nodes with
	// these pre-created CPUs (in replica order) instead of fresh per-node
	// ones: replica i runs on ReplicaProcs[i]. The placement layer passes
	// each group's fleet-node CPUs here, so co-located replicas of different
	// groups time-share a core. Must have exactly n entries; NewInstanceOn
	// panics otherwise. Client nodes always get their own CPUs.
	ReplicaProcs []*simnet.Proc
}

// NewInstance builds, starts, and warms up (leader elected) one system.
func NewInstance(kind Kind, n int, seed int64, opt Options) *Instance {
	inst := NewInstanceOn(simnet.New(seed), kind, n, opt)
	inst.warmUp()
	return inst
}

// warmUp runs the simulation until the system serves (a leader is
// elected), panicking if it never does.
func (inst *Instance) warmUp() {
	if !warmUp(inst.Sim, inst.Sys.Ready) {
		panic(fmt.Sprintf("bench: %s/%d never became ready", inst.Sys.Name(), inst.N))
	}
}

// warmUp runs sim in 5 ms steps, for at most 2 s of simulated time, until
// ready holds, and reports whether it did.
func warmUp(sim *simnet.Sim, ready func() bool) bool {
	for i := 0; i < 400 && !ready(); i++ {
		sim.RunFor(5 * time.Millisecond)
	}
	return ready()
}

// NewInstanceOn builds and starts one system on an existing simulator without
// warming it up. The seed-replay harness uses this to construct the same
// system twice on two identically seeded simulators.
func NewInstanceOn(sim *simnet.Sim, kind Kind, n int, opt Options) *Instance {
	if opt.ReplicaProcs != nil && len(opt.ReplicaProcs) != n {
		panic(fmt.Sprintf("bench: %d ReplicaProcs for a %d-replica %s", len(opt.ReplicaProcs), n, kind))
	}
	if opt.Durability != Volatile && !DurabilitySupported(kind) {
		panic(fmt.Sprintf("bench: %s has no %s storage mode", kind, opt.Durability))
	}
	if opt.Tracer != nil {
		sim.SetTracer(opt.Tracer)
	}
	inst := &Instance{Sim: sim, N: n}
	inst.sharedInterconnect = opt.SharedFabric != nil || opt.SharedNet != nil
	// The interconnect is chosen with the system; either way the replica
	// CPUs are queued before the cluster's AddNode calls consume them.
	fabric := func() *rdma.Fabric {
		f := opt.SharedFabric
		if f == nil {
			f = rdma.NewFabric(sim, rdma.DefaultParams())
		}
		f.ProvideProcs(opt.ReplicaProcs)
		inst.net = f
		return f
	}
	network := func() *tcpnet.Net {
		nt := opt.SharedNet
		if nt == nil {
			nt = tcpnet.New(sim, tcpnet.DefaultParams())
		}
		nt.ProvideProcs(opt.ReplicaProcs)
		inst.net = nt
		return nt
	}
	var c cluster
	switch kind {
	case Acuerdo:
		cfg := acuerdo.DefaultClusterConfig(n)
		if opt.AcuerdoConfig != nil {
			cfg.Replica = *opt.AcuerdoConfig
		}
		cfg.Desched = opt.Desched
		c = acuerdo.NewCluster(sim, fabric(), cfg)
	case DerechoLeader:
		c = derecho.NewCluster(sim, fabric(), derecho.DefaultConfig(n, derecho.LeaderMode))
	case DerechoAll:
		c = derecho.NewCluster(sim, fabric(), derecho.DefaultConfig(n, derecho.AllMode))
	case Apus:
		c = apus.NewCluster(sim, fabric(), apus.DefaultConfig(n))
	case Libpaxos:
		c = paxos.NewCluster(sim, network(), paxos.DefaultConfig(n))
	case Zookeeper:
		c = zab.NewCluster(sim, network(), zab.DefaultConfig(n))
	case Etcd:
		c = raft.NewCluster(sim, network(), raft.DefaultConfig(n))
	default:
		panic("bench: unknown system " + string(kind))
	}
	c.SetObserver(opt.Observer)
	if opt.Durability != Volatile {
		p := disk.DefaultParams()
		if opt.DiskParams != nil {
			p = *opt.DiskParams
		}
		inst.Disks = make([]*disk.Device, n)
		for i := range inst.Disks {
			inst.Disks[i] = disk.NewDevice(sim, i, p)
		}
		c.(durable).SetDisks(inst.Disks)
	}
	c.Start()
	inst.Sys, inst.cluster = c, c
	return inst
}

// --- Figure 8: broadcast latency/throughput under varying load ---

// Fig8Config parameterizes one subfigure.
type Fig8Config struct {
	// Nodes is the cluster size of the subfigure.
	Nodes int
	// MsgSize is the payload size in bytes (10 or 1000 in the paper).
	MsgSize int
	// Windows is the closed-loop load ladder (outstanding messages).
	Windows []int
	// Warmup and Measure are per-point simulated durations.
	Warmup  time.Duration
	Measure time.Duration
	// Seed seeds point i's private simulator with Seed+i, which is what
	// makes every grid point an independent, parallelizable world.
	Seed int64
	// TraceEvents, when > 0, installs a fresh tracer with that ring capacity
	// on every load point, enabling the latency decomposition columns and
	// Chrome-trace export of the last point.
	TraceEvents int
	// MinCommitted, when > 0, extends a point's measurement window until at
	// least that many deliveries land (see abcast.LoadConfig.MinCommitted).
	MinCommitted int
	// MaxMeasure caps the adaptive extension; zero means 10× Measure.
	MaxMeasure time.Duration
	// Observe runs every point under a runtime invariant observer
	// (internal/observe). A sweep point is a fault-free world, so any
	// violation is a protocol bug: RunPoint panics with the observer's
	// witness report. Off by default — the hot path stays hook-free.
	Observe bool
}

// DefaultWindows is the paper's 2^0..2^N load ladder.
var DefaultWindows = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// MinSamplesPerPoint is the delivery quota a default sweep point must meet:
// the measurement window extends (up to 10×) until at least this many
// deliveries land, so heavily loaded points — etcd at window 256 exceeds
// the 20 ms window with a handful of commits — report quantiles over a
// usable sample count instead of an under-filled window.
const MinSamplesPerPoint = 50

// DefaultFig8 returns the configuration for one of the four subfigures.
func DefaultFig8(nodes, msgSize int) Fig8Config {
	return Fig8Config{
		Nodes:        nodes,
		MsgSize:      msgSize,
		Windows:      DefaultWindows,
		Warmup:       4 * time.Millisecond,
		Measure:      20 * time.Millisecond,
		Seed:         1,
		MinCommitted: MinSamplesPerPoint,
	}
}

// RunPoint measures grid point i (window cfg.Windows[i]) of one system's
// ladder on a fresh, privately seeded instance. It is the unit of work both
// the serial and the parallel sweeps execute, which is why their results
// are identical byte for byte.
func RunPoint(kind Kind, cfg Fig8Config, i int) abcast.LoadResult {
	var opt Options
	if cfg.TraceEvents > 0 {
		opt.Tracer = trace.New(cfg.TraceEvents)
	}
	sim := simnet.New(cfg.Seed + int64(i))
	var obs *observe.Observer
	if cfg.Observe {
		// The tracer must be installed before the observer is built so
		// violations land in the trace stream too.
		sim.SetTracer(opt.Tracer)
		obs = NewObserver(sim, kind, cfg.Nodes)
		opt.Observer = obs
	}
	inst := NewInstanceOn(sim, kind, cfg.Nodes, opt)
	inst.warmUp()
	res := abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
		Window:       cfg.Windows[i],
		MsgSize:      cfg.MsgSize,
		Warmup:       cfg.Warmup,
		Measure:      cfg.Measure,
		MinCommitted: cfg.MinCommitted,
		MaxMeasure:   cfg.MaxMeasure,
	})
	if obs != nil && obs.ViolationCount() > 0 {
		panic(fmt.Sprintf("bench: %s/%d window %d violated invariants under fault-free load:\n%s",
			kind, cfg.Nodes, cfg.Windows[i], obs.Report()))
	}
	inst.Close()
	return res
}

// SweepSystem measures one system across the window ladder; each point runs
// on a fresh instance for independence.
func SweepSystem(kind Kind, cfg Fig8Config) []abcast.LoadResult {
	out := make([]abcast.LoadResult, 0, len(cfg.Windows))
	for i := range cfg.Windows {
		out = append(out, RunPoint(kind, cfg, i))
	}
	return out
}

// Figure8 runs every system for one subfigure, serially.
func Figure8(cfg Fig8Config, kinds []Kind) map[Kind][]abcast.LoadResult {
	out, _ := Figure8Parallel(cfg, kinds, 1)
	return out
}

// Figure8Parallel runs one subfigure's (system × window) grid on a worker
// pool. Every grid point is a sealed world — its own simulator, seeded only
// by (cfg.Seed, window index) — so the merged result is identical for every
// worker count, including 1; only the sweep.Report (host wall-clock,
// steals) varies. workers <= 0 selects GOMAXPROCS.
func Figure8Parallel(cfg Fig8Config, kinds []Kind, workers int) (map[Kind][]abcast.LoadResult, sweep.Report) {
	if kinds == nil {
		kinds = AllKinds
	}
	type job struct {
		k Kind
		i int
	}
	jobs := make([]job, 0, len(kinds)*len(cfg.Windows))
	for _, k := range kinds {
		for i := range cfg.Windows {
			jobs = append(jobs, job{k, i})
		}
	}
	results, rep := sweep.Run(len(jobs), workers, func(j int) abcast.LoadResult {
		return RunPoint(jobs[j].k, cfg, jobs[j].i)
	})
	out := make(map[Kind][]abcast.LoadResult, len(kinds))
	for j, r := range results {
		out[jobs[j].k] = append(out[jobs[j].k], r)
	}
	return out, rep
}

// PrintFigure8 renders one subfigure's series as the paper's
// (throughput, latency) curves.
func PrintFigure8(w io.Writer, title string, cfg Fig8Config, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	fmt.Fprintf(w, "%s (%d nodes, %dB messages; window %v)\n", title, cfg.Nodes, cfg.MsgSize, cfg.Windows)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\twindow\tthroughput(MB/s)\tthroughput(msg/s)\tlat-mean(us)\tlat-p50(us)\tlat-p90(us)\tlat-p99(us)\tlat-max(us)\n")
	for _, k := range kinds {
		for _, r := range results[k] {
			s := r.Latency.Export()
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.System, r.Window, r.MBPerSec, r.MsgsPerSec,
				us(s.Mean), us(s.P50), us(s.P90), us(s.P99), us(s.Max))
		}
	}
	tw.Flush()
	PrintDecomposition(w, results, kinds)
}

// PrintDecomposition renders the per-stage latency breakdown for every traced
// load point (no-op when tracing was off).
func PrintDecomposition(w io.Writer, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	any := false
	for _, k := range kinds {
		for _, r := range results[k] {
			if r.Decomp != nil && r.Decomp.Messages > 0 {
				any = true
			}
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "latency decomposition (submit->propose->accept->commit->ack, mean us per stage)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\twindow\tmsgs\tpost(us)\twire(us)\tproto(us)\tack(us)\ttotal(us)\n")
	for _, k := range kinds {
		for _, r := range results[k] {
			d := r.Decomp
			if d == nil || d.Messages == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.System, r.Window, d.Messages,
				us(d.Post()), us(d.Wire()), us(d.Proto()), us(d.Ack()), us(d.Total()))
		}
	}
	tw.Flush()
}

// PrintLayerReport renders the per-layer counters of each system's final
// (highest-window) traced load point.
func PrintLayerReport(w io.Writer, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	for _, k := range kinds {
		rs := results[k]
		if len(rs) == 0 {
			continue
		}
		last := rs[len(rs)-1]
		if last.Trace == nil {
			continue
		}
		fmt.Fprintf(w, "%s layer counters (window %d):\n", last.System, last.Window)
		last.Trace.WriteCounters(w)
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// --- Table 1: election duration vs replica count ---

// ElectionConfig parameterizes the Table 1 experiment.
type ElectionConfig struct {
	Nodes  int
	Rounds int
	Seed   int64
	// ProposeEvery is the open-loop message rate at the leader.
	ProposeEvery time.Duration
	// PauseFor is how long a deposed leader sleeps (the paper used 5s;
	// anything far above the failure timeout behaves identically).
	PauseFor time.Duration
	// Desched is the background scheduler noise on every replica.
	Desched *simnet.DeschedConfig
	// LongLatency is the number of "long-latency" machines in the cluster
	// (§4.2: the paper's testbed had a fixed machine pool whose slower
	// machines necessarily join larger clusters; election duration tracked
	// the proportion of such nodes far more than the replica count).
	LongLatency int
	// LLDesched is the long-latency machines' pause model.
	LLDesched *simnet.DeschedConfig
}

// DefaultElection returns the calibrated Table 1 configuration: two of the
// pool's nine machines are long-latency, so a cluster of n includes
// floor(2n/9) of them.
func DefaultElection(n int) ElectionConfig {
	return ElectionConfig{
		Nodes:        n,
		Rounds:       20,
		Seed:         1,
		ProposeEvery: 50 * time.Microsecond,
		PauseFor:     40 * time.Millisecond,
		Desched: &simnet.DeschedConfig{
			Interval: simnet.Exponential{MeanD: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
			Pause:    simnet.Exponential{MeanD: 60 * time.Microsecond, Cap: 2 * time.Millisecond},
		},
		LongLatency: 2 * n / 9,
		LLDesched: &simnet.DeschedConfig{
			Interval: simnet.Exponential{MeanD: 8 * time.Millisecond, Cap: 40 * time.Millisecond},
			Pause:    simnet.LogNormal{Mu: 15.9, Sigma: 0.8, Cap: 50 * time.Millisecond}, // ~8ms median
		},
	}
}

// ElectionResult is one Table 1 cell.
type ElectionResult struct {
	Nodes     int
	Rounds    int
	Durations []time.Duration
}

// Avg returns the mean election duration (the paper's reported statistic).
func (r ElectionResult) Avg() time.Duration {
	if len(r.Durations) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Durations {
		sum += d
	}
	return sum / time.Duration(len(r.Durations))
}

// ElectionBench repeatedly deposes the Acuerdo leader (it "sleeps" after
// winning, as in the paper) and measures, at each new winner, the time from
// its own suspicion of the old leader until it finished the election and
// diff transfer and could broadcast — detection time excluded, diff
// transfer included, exactly as §4.2 specifies.
func ElectionBench(cfg ElectionConfig) ElectionResult {
	acfg := acuerdo.DefaultConfig()
	acfg.CandidateTimeout = 2 * time.Millisecond
	inst := NewInstance(Acuerdo, cfg.Nodes, cfg.Seed, Options{
		Desched:       cfg.Desched,
		AcuerdoConfig: &acfg,
	})
	c := inst.Sys.(*acuerdo.Cluster)
	sim := inst.Sim
	// The long-latency machines (spread away from the initial leader so
	// they act as regular followers).
	if cfg.LLDesched != nil {
		ldr := c.LeaderIdx()
		for k := 0; k < cfg.LongLatency; k++ {
			d := *cfg.LLDesched
			c.Replicas[(ldr+1+k)%cfg.Nodes].Node.Proc.SetDesched(&d)
		}
	}
	res := ElectionResult{Nodes: cfg.Nodes, Rounds: cfg.Rounds}

	// Open-loop proposer: the leader streams 10-byte messages.
	var seq uint64
	var pump func()
	pump = func() {
		if ldr := c.Leader(); ldr != nil {
			seq++
			p := make([]byte, 10)
			abcast.PutMsgID(p, seq)
			ldr.Broadcast(p)
		}
		sim.PostAfter(cfg.ProposeEvery, pump)
	}
	pump()
	sim.RunFor(20 * time.Millisecond)

	for round := 0; round < cfg.Rounds; round++ {
		ldr := c.LeaderIdx()
		if ldr < 0 {
			sim.RunFor(20 * time.Millisecond)
			continue
		}
		oldEpoch := c.Replicas[ldr].Epoch()
		// The winner sleeps: heartbeats stop, survivors detect and elect.
		c.Replicas[ldr].Node.Proc.Pause(cfg.PauseFor)
		deadline := sim.Now().Add(2 * time.Second)
		for sim.Now() < deadline {
			sim.RunFor(2 * time.Millisecond)
			if i := c.LeaderIdx(); i >= 0 && i != ldr && oldEpoch.Less(c.Replicas[i].Epoch()) {
				break
			}
		}
		if i := c.LeaderIdx(); i >= 0 && i != ldr {
			w := c.Replicas[i]
			res.Durations = append(res.Durations, w.WonAt.Sub(w.SuspectedAt))
		}
		// Let the old leader wake and rejoin before the next round.
		sim.RunFor(cfg.PauseFor + 20*time.Millisecond)
	}
	return res
}

// CriticalElection returns the long-latency-critical variant: f of the
// replicas are long-latency machines, which makes the quorum depend on at
// least one of them in every election. This is the regime the paper's §4.2
// observation describes ("election times were far more sensitive to the
// proportion of long-latency nodes than to the overall number of replicas").
func CriticalElection(n int) ElectionConfig {
	cfg := DefaultElection(n)
	cfg.LongLatency = (n - 1) / 2
	cfg.LLDesched = &simnet.DeschedConfig{
		Interval: simnet.Exponential{MeanD: 6 * time.Millisecond, Cap: 30 * time.Millisecond},
		Pause:    simnet.LogNormal{Mu: 15.4, Sigma: 1.0, Cap: 30 * time.Millisecond},
	}
	return cfg
}

// Table1Row pairs the quiet and long-latency-critical measurements for one
// replica count.
type Table1Row struct {
	Quiet    ElectionResult
	Critical ElectionResult
}

// Table1 runs the election experiment across replica counts, in both the
// quiet configuration and the long-latency-critical one.
func Table1(counts []int, rounds int, seed int64) []Table1Row {
	if counts == nil {
		counts = []int{3, 5, 7, 9}
	}
	out := make([]Table1Row, 0, len(counts))
	for _, n := range counts {
		q := DefaultElection(n)
		q.Rounds = rounds
		q.Seed = seed
		c := CriticalElection(n)
		c.Rounds = rounds
		c.Seed = seed
		out = append(out, Table1Row{Quiet: ElectionBench(q), Critical: ElectionBench(c)})
	}
	return out
}

// PrintTable1 renders Table 1: the paper reports a single average per
// replica count; we report the quiet-cluster average plus the
// long-latency-critical average (see EXPERIMENTS.md for the analysis).
func PrintTable1(w io.Writer, results []Table1Row) {
	fmt.Fprintln(w, "Table 1: average Acuerdo election duration (includes diff transfer)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "replicas\telections\tavg(quiet)\tavg(long-latency-critical)\n")
	for _, r := range results {
		fmt.Fprintf(tw, "%d\t%d\t%.2fms\t%.2fms\n",
			r.Quiet.Nodes, len(r.Quiet.Durations),
			float64(r.Quiet.Avg())/1e6, float64(r.Critical.Avg())/1e6)
	}
	tw.Flush()
}
