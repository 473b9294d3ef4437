package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pt returns point i of a as its concrete type.
func pt[T any](a *Artifact, i int) *T { return a.Points[i].(*T) }

// TestArtifactRoundTrip checks, for every artifact kind, that an artifact
// survives write → ReadArtifact → Compare against itself, and that Compare
// fails, naming the field, when any deterministic field drifts or a field
// appears on only one side. Each drift is applied to a fresh read of the
// file.
func TestArtifactRoundTrip(t *testing.T) {
	type drift struct {
		want   string // substring the comparison error must contain
		mutate func(a *Artifact)
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *Artifact
		drifts []drift
	}{
		{
			name: "sweep",
			build: func(t *testing.T) *Artifact {
				cfg := smallFig8()
				kinds := []Kind{Acuerdo, Etcd}
				results, rep := Figure8Parallel(cfg, kinds, 2)
				a := NewArtifact("figure8-test", SweepArtifactKind)
				a.Workers = rep.Workers
				a.AddFigure8(cfg, results, kinds)
				if len(a.Points) != len(kinds)*len(cfg.Windows) {
					t.Fatalf("artifact has %d points, want %d", len(a.Points), len(kinds)*len(cfg.Windows))
				}
				for i := range a.Points {
					if pt[PointJSON](a, i).TraceFP == "" {
						t.Fatalf("point %d missing trace fingerprint", i)
					}
				}
				return a
			},
			drifts: []drift{
				{"points[0](acuerdo).committed", func(a *Artifact) { pt[PointJSON](a, 0).Committed++ }},
				{"trace_fp", func(a *Artifact) { pt[PointJSON](a, 1).TraceFP = "0000000000000000" }},
				{"trace_events", func(a *Artifact) { pt[PointJSON](a, 1).TraceEvents++ }},
			},
		},
		{
			name: "chaos",
			build: func(t *testing.T) *Artifact {
				cfg := observedChaos(5)
				a := NewArtifact("chaos-test", ChaosArtifactKind)
				a.AddChaos(cfg, []ChaosResult{
					RunScenario(Acuerdo, storm(), cfg),
					RunScenario(Etcd, storm(), cfg),
				})
				if len(a.Points) != 2 {
					t.Fatalf("artifact has %d points, want 2", len(a.Points))
				}
				for i := range a.Points {
					p := pt[ChaosPointJSON](a, i)
					if p.Fingerprint == "" || p.ObserveDigest == "" || p.ObserveChecks == 0 {
						t.Fatalf("point %d missing fingerprint or observer verdict: %+v", i, p)
					}
					if p.Violations != 0 {
						t.Fatalf("point %d: %d violations in a clean run", i, p.Violations)
					}
				}
				return a
			},
			drifts: []drift{
				{"points[0](acuerdo).acks", func(a *Artifact) { pt[ChaosPointJSON](a, 0).Acks++ }},
				{"observe_digest", func(a *Artifact) { pt[ChaosPointJSON](a, 1).ObserveDigest = "0000000000000000" }},
				// Both runs were observed, so a missing check count is a
				// difference, not an unrecorded optional field.
				{"observe_checks", func(a *Artifact) { pt[ChaosPointJSON](a, 1).ObserveChecks = 0 }},
				{".violations:", func(a *Artifact) { pt[ChaosPointJSON](a, 0).Violations = 3 }},
				{"durable_digest", func(a *Artifact) { pt[ChaosPointJSON](a, 0).DurableDigest = "ffffffffffffffff" }},
				{"disk_recovered_bytes", func(a *Artifact) { pt[ChaosPointJSON](a, 0).DiskRecoveredBytes += 64 }},
				{".durability:", func(a *Artifact) { pt[ChaosPointJSON](a, 0).Durability = "amnesia" }},
				{"violation_reports", func(a *Artifact) {
					pt[ChaosPointJSON](a, 0).ViolationReports = []string{"total-order at node 2"}
				}},
				{"safety", func(a *Artifact) { pt[ChaosPointJSON](a, 0).Safety = "node 2 delivered 7 at position 3" }},
			},
		},
		{
			name: "placement",
			build: func(t *testing.T) *Artifact {
				r := RunPlacementYCSB(shortPlacement(Acuerdo, 2))
				a := NewArtifact("placement-test", PlacementArtifactKind)
				a.AddPlacement(&r)
				return a
			},
			drifts: []drift{
				{"groups[1].delivery_fp", func(a *Artifact) {
					pt[PlacementPointJSON](a, 0).Groups[1].DeliveryFP = "deadbeefdeadbeef"
				}},
				{"groups[1].pg:", func(a *Artifact) { pt[PlacementPointJSON](a, 0).Groups[1].PG = 7 }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.build(t)
			f.WallNS = 12345
			path := filepath.Join(t.TempDir(), "artifact.json")
			if err := f.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			read := func() *Artifact {
				a, err := ReadArtifact(path)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			back := read()
			if back.Kind != f.Kind {
				t.Fatalf("read kind %q, wrote %q", back.Kind, f.Kind)
			}
			if err := Compare(back, f, 0); err != nil {
				t.Fatalf("self-comparison failed: %v", err)
			}
			for _, d := range tc.drifts {
				drifted := read()
				d.mutate(drifted)
				if err := Compare(drifted, f, -1); err == nil || !strings.Contains(err.Error(), d.want) {
					t.Errorf("drift in %s not rejected by name: %v", d.want, err)
				}
			}

			// Wall-clock regression beyond tolerance must fail; negative
			// tolerance must skip the check.
			back.WallNS = f.WallNS*2 + 1
			if err := Compare(back, f, 0.10); err == nil {
				t.Fatal("Compare accepted a 2x wall-clock regression at 10% tolerance")
			}
			if err := Compare(back, f, -1); err != nil {
				t.Fatalf("negative tolerance should skip wall-clock: %v", err)
			}
		})
	}
}

// TestArtifactKinds checks that artifacts of different kinds never compare
// equal, and that ReadArtifact rejects an unknown kind and a field its
// point type does not declare instead of dropping what it cannot compare.
func TestArtifactKinds(t *testing.T) {
	sweep := NewArtifact("run", SweepArtifactKind)
	sweep.Points = []any{&PointJSON{System: "acuerdo", Nodes: 3}}
	chaosArt := NewArtifact("run", ChaosArtifactKind)
	chaosArt.Points = []any{&ChaosPointJSON{System: "acuerdo", Nodes: 3}}
	if err := Compare(chaosArt, sweep, -1); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("chaos artifact against a sweep baseline: %v", err)
	}

	dir := t.TempDir()
	chaosArt.Kind = "chaos-v2"
	unknown := filepath.Join(dir, "unknown.json")
	if err := chaosArt.WriteFile(unknown); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(unknown); err == nil || !strings.Contains(err.Error(), `"chaos-v2"`) {
		t.Fatalf("ReadArtifact on kind chaos-v2: %v", err)
	}

	extra := filepath.Join(dir, "extra.json")
	doc := `{"name": "run", "gomaxprocs": 1, "wall_ns": 0, "points": [{"system": "acuerdo", "safety": "x"}]}`
	if err := os.WriteFile(extra, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(extra); err == nil || !strings.Contains(err.Error(), "safety") {
		t.Fatalf("ReadArtifact on a sweep point carrying safety: %v", err)
	}
}

// TestCommittedBaselinesReadable checks, without running a simulation,
// that every committed baseline parses as its kind with its point count,
// compares clean against itself, and fails against a drifted copy.
func TestCommittedBaselinesReadable(t *testing.T) {
	for _, tc := range []struct {
		file   string
		kind   string
		points int
	}{
		{"BENCH_baseline.json", SweepArtifactKind, 21},
		{"BENCH_figure8.json", SweepArtifactKind, 252},
		{"BENCH_placement.json", PlacementArtifactKind, 4},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("..", "..", tc.file)
			base, err := ReadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			if base.Kind != tc.kind || len(base.Points) != tc.points {
				t.Fatalf("kind %q with %d points, want %q with %d", base.Kind, len(base.Points), tc.kind, tc.points)
			}
			cur, err := ReadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := Compare(cur, base, 0); err != nil {
				t.Fatalf("self-comparison failed: %v", err)
			}
			switch p := cur.Points[len(cur.Points)-1].(type) {
			case *PointJSON:
				p.Committed++
			case *PlacementPointJSON:
				p.Committed++
			}
			if err := Compare(cur, base, -1); err == nil || !strings.Contains(err.Error(), "committed") {
				t.Fatalf("drifted copy not rejected: %v", err)
			}
		})
	}
}
