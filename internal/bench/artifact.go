// Benchmark artifacts. Every sweep, chaos run and scale-out ladder can be
// written to one machine-readable JSON envelope (the BENCH_*.json files at
// the repo root are committed artifacts), so results have a trajectory
// across commits, and Compare turns two artifacts into a pass/fail
// regression verdict for CI.
//
// The fields split into two classes, declared once in hostKeys and
// optionalKeys:
//
//   - deterministic fields (commit counts, simulated elapsed time,
//     throughput, latency quantiles, fingerprints, observer and device
//     digests) are pure functions of the seed and must match a baseline
//     exactly on an unchanged tree;
//   - host fields (wall-clock, workers, gomaxprocs, allocations) describe
//     the machine and run; only the artifact's total wall-clock is
//     compared, within a tolerance.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/metrics"
)

// The artifact kinds: which point type an Artifact's Points hold. Sweep
// artifacts predate the discriminator and carry none.
const (
	SweepArtifactKind     = ""
	ChaosArtifactKind     = "chaos"
	PlacementArtifactKind = "placement"
)

// Artifact is one benchmark result file: identification, host metadata,
// and the points in run order.
type Artifact struct {
	// Name identifies the run ("figure8", "chaos-short", "placement", ...);
	// Kind is one of the artifact kinds above.
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	// GoMaxProcs, Workers, WallNS, Allocs, and AllocBytes are host
	// metadata: the pool size the run used, its total wall-clock time, and
	// the heap objects/bytes it allocated.
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers,omitempty"`
	WallNS     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Points holds *PointJSON for sweeps, *ChaosPointJSON for chaos runs,
	// and *PlacementPointJSON for scale-out ladders.
	Points []any `json:"points"`
}

// LatencyJSON is a latency histogram summary in nanoseconds of simulated
// time. All fields are deterministic.
type LatencyJSON struct {
	// MeanNS through MaxNS summarize the per-message commit latency
	// distribution of one load point.
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// PointJSON is one grid point of a sweep: one (system, nodes, payload,
// window, seed) cell with its measured results. WallNS is host metadata;
// everything else is deterministic.
type PointJSON struct {
	// System, Nodes, MsgSize, Window, and Seed identify the grid cell.
	System  string `json:"system"`
	Nodes   int    `json:"nodes"`
	MsgSize int    `json:"msg_size"`
	Window  int    `json:"window"`
	Seed    int64  `json:"seed"`
	// Committed is the number of acknowledged messages in the measurement
	// window; ElapsedNS is that window's simulated length (it can exceed
	// the configured Measure when the adaptive extension kicked in).
	Committed int   `json:"committed"`
	ElapsedNS int64 `json:"elapsed_sim_ns"`
	// MBPerSec and MsgsPerSec are the point's saturation throughput.
	MBPerSec   float64 `json:"mb_per_sec"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// Latency summarizes the commit-latency distribution.
	Latency LatencyJSON `json:"latency"`
	// TraceFP is the run's trace fingerprint as 16 hex digits, present only
	// when the sweep ran with tracing; TraceEvents is how many events the
	// tracer observed.
	TraceFP     string `json:"trace_fp,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
	// WallNS is the host wall-clock time the point took (machine-dependent).
	WallNS int64 `json:"wall_ns"`
}

// ChaosPointJSON is one (system, scenario) cell of a chaos artifact. Every
// field is deterministic: the whole row is a pure function of the seed, so
// a baseline comparison demands exact equality.
type ChaosPointJSON struct {
	// System, Scenario, Nodes, and Seed identify the cell.
	System   string `json:"system"`
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed"`
	// Acks is the client-visible commit count over the whole run; Fired is
	// how many fault actions the engine applied.
	Acks  int `json:"acks"`
	Fired int `json:"fired"`
	// Recovered of Measured disruptive faults recovered; the MTTR fields
	// summarize their client-visible recovery times.
	Recovered  int   `json:"recovered"`
	Measured   int   `json:"measured"`
	MTTRMeanNS int64 `json:"mttr_mean_ns"`
	MTTRMaxNS  int64 `json:"mttr_max_ns"`
	// UnavailNS totals the client-visible unavailability windows.
	UnavailNS int64 `json:"unavail_ns"`
	// Wedged reports whether the no-progress watchdog stopped the run.
	Wedged bool `json:"wedged"`
	// Safety carries the first atomic-broadcast safety violation ("" = ok).
	Safety string `json:"safety,omitempty"`
	// Fingerprint is the trace hash as 16 hex digits.
	Fingerprint string `json:"fingerprint"`
	// Violations, ViolationReports, ObserveChecks, and ObserveDigest carry
	// the runtime invariant observer's verdict when the run was observed.
	Violations       int64    `json:"violations"`
	ViolationReports []string `json:"violation_reports,omitempty"`
	ObserveChecks    uint64   `json:"observe_checks,omitempty"`
	ObserveDigest    string   `json:"observe_digest,omitempty"`
	// Durability names the storage model ("durable", "amnesia"; absent =
	// volatile). DiskRecoveredBytes and FabricRecoveryBytes split how
	// crash-lost state was refilled; DurableDigest is the folded device
	// digest (deterministic per seed) as 16 hex digits.
	Durability          string `json:"durability,omitempty"`
	DiskRecoveredBytes  int64  `json:"disk_recovered_bytes,omitempty"`
	FabricRecoveryBytes int64  `json:"fabric_recovery_bytes,omitempty"`
	DurableDigest       string `json:"durable_digest,omitempty"`
}

// PlacementPGJSON is one group's share of a scale-out point. Every field
// is deterministic.
type PlacementPGJSON struct {
	// PG, Leader, and Members echo the group's slot in the placement map.
	PG      int   `json:"pg"`
	Leader  int   `json:"leader"`
	Members []int `json:"members"`
	// Committed and OpsPerSec are the group's measured YCSB throughput.
	Committed int     `json:"committed"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// DeliveryFP folds the group's per-replica delivery sequences.
	DeliveryFP string `json:"delivery_fp"`
	// Violations and ObserveDigest carry the group's observer verdict when
	// the run was observed.
	Violations    int64  `json:"violations"`
	ObserveChecks uint64 `json:"observe_checks,omitempty"`
	ObserveDigest string `json:"observe_digest,omitempty"`
}

// PlacementPointJSON is one scale-out point: one (system, PG count) cell
// with its per-group shares. WallNS is host metadata; everything else is
// deterministic.
type PlacementPointJSON struct {
	// System through Seed identify the cell.
	System      string `json:"system"`
	PGs         int    `json:"pgs"`
	PGSize      int    `json:"pg_size"`
	Fleet       int    `json:"fleet"`
	Domains     int    `json:"domains"`
	Seed        int64  `json:"seed"`
	WindowPerPG int    `json:"window_per_pg"`
	// Committed and AggOpsPerSec are the figure's y-axis: every group's
	// measured load summed; ElapsedNS the measured simulated interval.
	Committed    int     `json:"committed"`
	AggOpsPerSec float64 `json:"agg_ops_per_sec"`
	ElapsedNS    int64   `json:"elapsed_sim_ns"`
	// Latency summarizes the merged commit-latency distribution.
	Latency LatencyJSON `json:"latency"`
	// MapFP is the placement map's digest, TraceFP the shared simulation's
	// event-stream digest, and Fingerprint the folded seed-replay digest.
	MapFP       string `json:"map_fp"`
	TraceFP     string `json:"trace_fp"`
	Fingerprint string `json:"fingerprint"`
	// WallNS is the host wall-clock time the point took.
	WallNS int64 `json:"wall_ns"`
	// Groups holds the per-group shares, in PG-ID order.
	Groups []PlacementPGJSON `json:"groups"`
}

// NewArtifact creates an empty artifact of the given kind for the named
// run, stamping the host's GOMAXPROCS.
func NewArtifact(name, kind string) *Artifact {
	return &Artifact{Name: name, Kind: kind, GoMaxProcs: runtime.GOMAXPROCS(0)}
}

func latencyJSON(h *metrics.Histogram) LatencyJSON {
	s := h.Export()
	return LatencyJSON{
		MeanNS: int64(s.Mean), P50NS: int64(s.P50), P90NS: int64(s.P90),
		P99NS: int64(s.P99), P999NS: int64(s.P999), MaxNS: int64(s.Max),
	}
}

// AddFigure8 appends one subfigure's results in deterministic grid order
// (kinds outer, windows inner — the same order the tables print in).
func (a *Artifact) AddFigure8(cfg Fig8Config, results map[Kind][]abcast.LoadResult, kinds []Kind) {
	if kinds == nil {
		kinds = AllKinds
	}
	for _, k := range kinds {
		for i, r := range results[k] {
			p := &PointJSON{
				System:     r.System,
				Nodes:      cfg.Nodes,
				MsgSize:    cfg.MsgSize,
				Window:     r.Window,
				Seed:       cfg.Seed + int64(i),
				Committed:  r.Committed,
				ElapsedNS:  int64(r.Elapsed),
				MBPerSec:   r.MBPerSec,
				MsgsPerSec: r.MsgsPerSec,
				Latency:    latencyJSON(&r.Latency),
			}
			if r.Trace != nil {
				p.TraceFP = fmt.Sprintf("%016x", r.Trace.Fingerprint())
				p.TraceEvents = r.Trace.Emitted()
			}
			a.Points = append(a.Points, p)
		}
	}
}

// AddChaos appends one scenario's cross-system results in run order.
func (a *Artifact) AddChaos(cfg ChaosConfig, results []ChaosResult) {
	for _, r := range results {
		mean, n := r.MeanMTTR()
		p := &ChaosPointJSON{
			System:           string(r.Kind),
			Scenario:         r.Plan,
			Nodes:            cfg.Nodes,
			Seed:             cfg.Seed,
			Acks:             r.Acks,
			Fired:            len(r.Fired),
			Recovered:        n,
			Measured:         len(r.Recoveries),
			MTTRMeanNS:       int64(mean),
			MTTRMaxNS:        int64(r.MaxMTTR()),
			UnavailNS:        int64(r.Unavail),
			Wedged:           r.Watchdog != nil,
			Fingerprint:      fmt.Sprintf("%016x", r.Fingerprint),
			Violations:       r.Violations,
			ViolationReports: r.ViolationReports,
			ObserveChecks:    r.ObserveChecks,
		}
		if r.SafetyErr != nil {
			p.Safety = r.SafetyErr.Error()
		}
		if r.ObserveChecks > 0 {
			p.ObserveDigest = fmt.Sprintf("%016x", r.ObserveDigest)
		}
		if r.Durability != Volatile {
			p.Durability = string(r.Durability)
			p.DiskRecoveredBytes = r.DiskRecoveredBytes
			p.FabricRecoveryBytes = r.FabricRecoveryBytes
			p.DurableDigest = fmt.Sprintf("%016x", r.DurableDigest)
		}
		a.Points = append(a.Points, p)
	}
}

// AddPlacement appends one scale-out point.
func (a *Artifact) AddPlacement(r *PlacementResult) {
	c := r.Config.Placement
	p := &PlacementPointJSON{
		System:       r.System,
		PGs:          c.PGs,
		PGSize:       c.PGSize,
		Fleet:        c.Fleet,
		Domains:      c.Domains,
		Seed:         r.Config.Seed,
		WindowPerPG:  r.Config.WindowPerPG,
		Committed:    r.Committed,
		AggOpsPerSec: r.OpsPerSec,
		ElapsedNS:    int64(r.Elapsed),
		Latency:      latencyJSON(&r.Latency),
		MapFP:        fmt.Sprintf("%016x", r.MapFP),
		TraceFP:      fmt.Sprintf("%016x", r.TraceFP),
		Fingerprint:  fmt.Sprintf("%016x", r.Fingerprint),
	}
	for i := range r.Groups {
		g := &r.Groups[i]
		gj := PlacementPGJSON{
			PG:            g.PG,
			Leader:        g.Leader,
			Members:       append([]int(nil), g.Members...),
			Committed:     g.Committed,
			OpsPerSec:     g.OpsPerSec,
			DeliveryFP:    fmt.Sprintf("%016x", g.DeliveryFP),
			Violations:    g.Violations,
			ObserveChecks: g.ObserveChecks,
		}
		if g.ObserveChecks > 0 {
			gj.ObserveDigest = fmt.Sprintf("%016x", g.ObserveDigest)
		}
		p.Groups = append(p.Groups, gj)
	}
	a.Points = append(a.Points, p)
}

// WriteFile writes the artifact as indented JSON (byte-stable given the
// same contents: encoding/json orders struct fields by declaration).
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact parses an artifact previously written by WriteFile. An
// unknown kind, or a field its point type does not declare, is an error:
// either would otherwise escape Compare.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env struct {
		Artifact
		Points []json.RawMessage `json:"points"`
	}
	if err := decodeStrict(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	a := env.Artifact
	var newPoint func() any
	switch a.Kind {
	case SweepArtifactKind:
		newPoint = func() any { return new(PointJSON) }
	case ChaosArtifactKind:
		newPoint = func() any { return new(ChaosPointJSON) }
	case PlacementArtifactKind:
		newPoint = func() any { return new(PlacementPointJSON) }
	default:
		return nil, fmt.Errorf("%s: unknown artifact kind %q", path, a.Kind)
	}
	for i, raw := range env.Points {
		p := newPoint()
		if err := decodeStrict(raw, p); err != nil {
			return nil, fmt.Errorf("%s: points[%d]: %w", path, i, err)
		}
		a.Points = append(a.Points, p)
	}
	return &a, nil
}

// decodeStrict decodes the JSON value data starts with into v, rejecting
// any field v does not declare.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// hostKeys name the host-metadata fields. They describe the machine and the
// run, not the simulation, so Compare skips them at every level.
var hostKeys = map[string]bool{
	"gomaxprocs": true, "workers": true, "wall_ns": true, "allocs": true, "alloc_bytes": true,
}

// optionalKeys name deterministic fields that only some runs record (with
// tracing or observers on), each mapped to the field that marks such a run.
// Compare lets an optional field be absent on one side only when that
// side's run did not record it, so a traced run still compares against an
// untraced baseline, yet two traced runs must agree on every trace field.
var optionalKeys = map[string]string{
	"trace_fp": "trace_fp", "trace_events": "trace_fp",
	"observe_checks": "observe_digest", "observe_digest": "observe_digest",
}

// unrecorded reports whether k is an optional field that the run behind c
// or b did not record.
func unrecorded(k string, c, b map[string]any) bool {
	marker, ok := optionalKeys[k]
	_, inC := c[marker]
	_, inB := b[marker]
	return ok && !(inC && inB)
}

// Compare checks cur against base and returns an error naming the path of
// the first difference, e.g. "points[3](etcd).acks: got 1001, baseline 1000".
//
// Every field outside hostKeys is deterministic and must be equal, and a
// field present on only one side is a difference unless it is an
// optional field that side's run did not record. A mismatch means the
// simulation's behaviour changed, which is either a bug or a change that
// must regenerate the committed baseline.
//
// Wall-clock is compared only when wallTol >= 0: cur.WallNS may exceed
// base.WallNS by at most that fraction (0.10 = +10%). Pass a negative
// wallTol when the two files come from different machines, e.g. a freshly
// measured sweep against a committed baseline.
func Compare(cur, base *Artifact, wallTol float64) error {
	c, err := jsonTree(cur)
	if err != nil {
		return err
	}
	b, err := jsonTree(base)
	if err != nil {
		return err
	}
	if err := diffTree("", c, b); err != nil {
		return err
	}
	if wallTol >= 0 && base.WallNS > 0 {
		if limit := int64(float64(base.WallNS) * (1 + wallTol)); cur.WallNS > limit {
			return fmt.Errorf("wall-clock %v exceeds baseline %v by more than %.0f%%",
				time.Duration(cur.WallNS), time.Duration(base.WallNS), wallTol*100)
		}
	}
	return nil
}

// jsonTree renders a as a generic JSON tree whose numbers stay json.Number
// text, so integers keep every digit.
func jsonTree(a *Artifact) (any, error) {
	data, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// diffTree walks c against b, object keys in sorted order, and returns the
// first difference.
func diffTree(path string, c, b any) error {
	if reflect.TypeOf(c) != reflect.TypeOf(b) {
		return mismatch(path, c, b)
	}
	switch bv := b.(type) {
	case map[string]any:
		cv := c.(map[string]any)
		keys := append(slices.Collect(maps.Keys(cv)), slices.Collect(maps.Keys(bv))...)
		slices.Sort(keys)
		for _, k := range slices.Compact(keys) {
			p := strings.TrimPrefix(path+"."+k, ".")
			cx, inC := cv[k]
			bx, inB := bv[k]
			switch {
			case hostKeys[k]:
			case inC && inB:
				if err := diffTree(p, cx, bx); err != nil {
					return err
				}
			case unrecorded(k, cv, bv):
			case inC:
				return fmt.Errorf("%s: got %s, baseline has none", p, show(cx))
			default:
				return fmt.Errorf("%s: missing, baseline %s", p, show(bx))
			}
		}
	case []any:
		cv := c.([]any)
		if len(cv) != len(bv) {
			return fmt.Errorf("%s: %d entries, baseline has %d", path, len(cv), len(bv))
		}
		for i := range bv {
			p := fmt.Sprintf("%s[%d]", path, i)
			if m, ok := bv[i].(map[string]any); ok {
				if sys, ok := m["system"].(string); ok {
					p += "(" + sys + ")"
				}
			}
			if err := diffTree(p, cv[i], bv[i]); err != nil {
				return err
			}
		}
	default:
		// A string, bool, null, or json.Number. Both trees come from the
		// same encoder, which writes equal numbers as equal text: integers
		// in full, floats in their shortest round-trip form.
		if c != b {
			return mismatch(path, c, b)
		}
	}
	return nil
}

func mismatch(path string, c, b any) error {
	return fmt.Errorf("%s: got %s, baseline %s", path, show(c), show(b))
}

// show renders a tree value as JSON for an error message.
func show(v any) string {
	data, _ := json.Marshal(v) // v came from a JSON decode, so it re-encodes
	return string(data)
}
