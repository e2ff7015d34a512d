package adapt

import (
	"math"
	"sort"
	"testing"

	"serviceordering/internal/model"
)

// TestSnapshotEncodeDecodeRoundTrip: a published snapshot survives the
// gossip wire byte-exactly in every map.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	s := &Snapshot{
		Gen: 7,
		Services: map[string]ServiceParams{
			"a": {Cost: 1.25, Selectivity: 0.5},
			"b": {Cost: 2, Selectivity: 0.125},
		},
		Edges: map[Edge]float64{
			{From: "a", To: "b"}: 0.1,
			{From: "b", To: "a"}: 0.2,
		},
		Reliability: map[string]ReliabilityParams{
			"a": {ErrorRate: 0.01, SpikeRate: 0.002},
		},
	}
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != s.Gen {
		t.Fatalf("gen %d, want %d", got.Gen, s.Gen)
	}
	if len(got.Services) != len(s.Services) || len(got.Edges) != len(s.Edges) || len(got.Reliability) != len(s.Reliability) {
		t.Fatalf("map sizes %d/%d/%d, want %d/%d/%d",
			len(got.Services), len(got.Edges), len(got.Reliability),
			len(s.Services), len(s.Edges), len(s.Reliability))
	}
	for name, want := range s.Services {
		if got.Services[name] != want {
			t.Fatalf("service %s = %+v, want %+v", name, got.Services[name], want)
		}
	}
	for e, want := range s.Edges {
		if math.Abs(got.Edges[e]-want) > 0 {
			t.Fatalf("edge %v = %v, want %v", e, got.Edges[e], want)
		}
	}
	for name, want := range s.Reliability {
		if got.Reliability[name] != want {
			t.Fatalf("reliability %s = %+v, want %+v", name, got.Reliability[name], want)
		}
	}
}

// TestSnapshotEncodeNil: nil encodes as the empty generation-0 snapshot,
// and the decode side gives back usable (non-nil) maps.
func TestSnapshotEncodeNil(t *testing.T) {
	t.Parallel()
	data, err := EncodeSnapshot(nil)
	if err != nil {
		t.Fatalf("encode nil: %v", err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != 0 || len(got.Services) != 0 || len(got.Edges) != 0 {
		t.Fatalf("nil snapshot decoded as %+v, want empty gen 0", got)
	}
	if got.Services == nil || got.Edges == nil || got.Reliability == nil {
		t.Fatal("decoded snapshot has nil maps")
	}
}

// TestSnapshotDecodeRejects: garbage, unknown formats and values no
// registry publishes are typed errors, never a silently-empty or
// poisoned snapshot.
func TestSnapshotDecodeRejects(t *testing.T) {
	t.Parallel()
	for _, frame := range []string{
		`not json`,
		`{"format":99,"gen":1}`,
		`{"format":1,"gen":2,"services":{"a":{"cost":-5,"selectivity":-1}}}`,
		`{"format":1,"gen":2,"services":{"a":{"cost":1,"selectivity":-0.5}}}`,
		`{"format":1,"gen":2,"services":{"a":{"cost":1e101,"selectivity":0.5}}}`,
		`{"format":1,"gen":2,"services":{"":{"cost":1,"selectivity":0.5}}}`,
		`{"format":1,"gen":2,"services":{"a":{"cost":1e999,"selectivity":0.5}}}`,
		`{"format":1,"gen":2,"reliability":{"a":{"errorRate":1.5,"spikeRate":0}}}`,
		`{"format":1,"gen":2,"reliability":{"a":{"errorRate":0.1,"spikeRate":-0.1}}}`,
		`{"format":1,"gen":2,"reliability":{"":{"errorRate":0.1,"spikeRate":0}}}`,
		`{"format":1,"gen":2,"edges":[{"from":"a","to":"b","transfer":-1}]}`,
		`{"format":1,"gen":2,"edges":[{"from":"","to":"b","transfer":1}]}`,
		`{"format":1,"gen":2,"edges":[{"from":"a","to":"","transfer":1}]}`,
	} {
		if s, err := DecodeSnapshot([]byte(frame)); err == nil {
			t.Errorf("%s decoded without error as %+v", frame, s)
		}
	}
	// The bounds are inclusive: a certain failure and a free service are
	// values a registry can publish.
	ok := `{"format":1,"gen":2,"services":{"a":{"cost":0,"selectivity":0}},` +
		`"reliability":{"a":{"errorRate":1,"spikeRate":0}},"edges":[{"from":"a","to":"b","transfer":0}]}`
	if _, err := DecodeSnapshot([]byte(ok)); err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
}

// FuzzDecodeSnapshot: a gossiped frame either fails to decode, or yields
// a snapshot whose overlay keeps a valid query valid — a peer's anchors
// never turn a client's query into one the planner rejects — and that
// re-encodes to a frame that decodes again. The seed corpus lives in
// testdata/fuzz/FuzzDecodeSnapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if q := queryNaming(s); q != nil {
			if err := q.Validate(); err != nil {
				t.Fatalf("test query invalid: %v", err)
			}
			eff, _ := s.Overlay(q)
			if err := eff.Validate(); err != nil {
				t.Fatalf("snapshot %s overlays a valid query into an invalid one: %v", data, err)
			}
		}
		again, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(again); err != nil {
			t.Fatalf("re-encoded snapshot %s does not decode: %v", again, err)
		}
	})
}

// queryNaming builds a valid query with one service for each name the
// snapshot anchors, up to 32 in sorted order, so the overlay exercises
// the anchors; nil when the snapshot names none.
func queryNaming(s *Snapshot) *model.Query {
	seen := map[string]bool{}
	for name := range s.Services {
		seen[name] = true
	}
	for name := range s.Reliability {
		seen[name] = true
	}
	for e := range s.Edges {
		seen[e.From], seen[e.To] = true, true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	names = names[:min(len(names), 32)]
	q := &model.Query{Transfer: make([][]float64, len(names))}
	for i, name := range names {
		q.Services = append(q.Services, model.Service{Name: name, Cost: 1, Selectivity: 0.5})
		q.Transfer[i] = make([]float64, len(names))
		for j := range q.Transfer[i] {
			if j != i {
				q.Transfer[i][j] = 0.1
			}
		}
	}
	return q
}

// TestInstallMonotonic: Install adopts only strictly newer generations —
// out-of-order gossip and self-echoes are ignored.
func TestInstallMonotonic(t *testing.T) {
	t.Parallel()
	r := MustNew(Config{})
	if r.Install(nil) {
		t.Fatal("installed nil snapshot")
	}
	if !r.Install(&Snapshot{Gen: 3, Services: map[string]ServiceParams{"a": {Cost: 2, Selectivity: 0.5}}}) {
		t.Fatal("refused strictly newer snapshot")
	}
	if got := r.Generation(); got != 3 {
		t.Fatalf("generation %d after install, want 3", got)
	}
	if r.Install(&Snapshot{Gen: 3}) {
		t.Fatal("adopted equal-generation snapshot")
	}
	if r.Install(&Snapshot{Gen: 2}) {
		t.Fatal("adopted older snapshot")
	}
	if got := r.Current().Services["a"].Cost; got != 2 {
		t.Fatalf("stale install overwrote anchor: cost %v, want 2", got)
	}
	if !r.Install(&Snapshot{Gen: 4}) {
		t.Fatal("refused newer snapshot after earlier install")
	}
}

// TestInstallDriftsAgainstInstalledAnchor: after adopting a remote anchor,
// local observations drift against it exactly as against a local publish —
// the next publish is a strictly higher generation.
func TestInstallDriftsAgainstInstalledAnchor(t *testing.T) {
	t.Parallel()
	q := twoService(t)
	r := MustNew(Config{Alpha: 0.5, MinObservations: 2, DriftDelta: 0.05})
	// Remote anchor fitted far from q's truth: local observations of the
	// truth must register as drift and publish past the installed gen.
	remote := &Snapshot{
		Gen: 10,
		Services: map[string]ServiceParams{
			"a": {Cost: 100, Selectivity: 0.9},
			"b": {Cost: 100, Selectivity: 0.9},
		},
	}
	if !r.Install(remote) {
		t.Fatal("install refused")
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Observe(report(q, model.Plan{0, 1}, 1000)); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
	if got := r.Generation(); got <= 10 {
		t.Fatalf("generation %d after drift against installed anchor, want > 10", got)
	}
}
