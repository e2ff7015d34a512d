package planner

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/gen"
)

// Overload-survival pieces at the planner layer: the admission
// temperature probe, the stale-serve degraded mode, and plan-cache
// snapshot/restore with generation validation.

func TestClassifyTemperatures(t *testing.T) {
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	q := namedQuery(t, 8, 511, "svc-")
	ctx := context.Background()

	if temp := p.Classify(q); temp != TempCold {
		t.Fatalf("unseen query classifies %v, want cold", temp)
	}
	if _, err := p.Optimize(ctx, q); err != nil {
		t.Fatal(err)
	}
	if temp := p.Classify(q); temp != TempWarm {
		t.Fatalf("cached query classifies %v, want warm", temp)
	}

	// Classification must not move the serving counters.
	before := p.Stats()
	for i := 0; i < 10; i++ {
		p.Classify(q)
	}
	after := p.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.MemoHits != before.MemoHits {
		t.Fatalf("Classify moved counters: before %+v after %+v", before, after)
	}

	// Drift: the entry's generation stamp no longer matches — stale.
	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	truth.Services[0].Selectivity *= 0.5
	observeCovering(t, reg, truth, 1)
	if reg.Generation() == 0 {
		t.Fatal("no drift generation published")
	}
	if temp := p.Classify(q); temp != TempStale {
		t.Fatalf("post-drift query classifies %v, want stale", temp)
	}

	if p.Classify(nil) != TempCold {
		t.Fatal("nil query must classify cold")
	}
}

func TestServeStaleAfterDrift(t *testing.T) {
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	q := namedQuery(t, 8, 511, "svc-")
	ctx := context.Background()

	// Nothing resident: stale-serve has nothing to say.
	if _, ok := p.ServeStale(q); ok {
		t.Fatal("ServeStale served an empty cache")
	}

	first, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh entry resident: served fresh, not stale (never worse than
	// promised).
	res, ok := p.ServeStale(q)
	if !ok || res.Stale || res.Cost != first.Cost {
		t.Fatalf("fresh ServeStale = (stale=%v cost=%v ok=%v), want fresh hit at %v", res.Stale, res.Cost, ok, first.Cost)
	}

	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	truth.Services[0].Selectivity *= 0.5
	observeCovering(t, reg, truth, 1)
	if reg.Generation() == 0 {
		t.Fatal("no drift generation published")
	}

	// Degraded mode: the previous generation's plan and cost, flagged.
	res, ok = p.ServeStale(q)
	if !ok {
		t.Fatal("ServeStale found nothing after drift despite a resident entry")
	}
	if !res.Stale {
		t.Fatal("post-drift ServeStale response not flagged stale")
	}
	if res.Cost != first.Cost {
		t.Fatalf("stale response cost %v, want the pre-drift answer %v", res.Cost, first.Cost)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Fatalf("stale plan invalid for the query: %v", err)
	}

	// A real optimize afterwards replans (incumbent-seeded) and the entry
	// catches up: stale-serve then reverts to fresh.
	re, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Replanned {
		t.Fatal("post-drift optimize did not replan")
	}
	res, ok = p.ServeStale(q)
	if !ok || res.Stale {
		t.Fatalf("after replan ServeStale = (stale=%v, ok=%v), want fresh", res.Stale, ok)
	}
}

// TestServeStaleFragmentNamesCurrentSignature: a stale answer recovered
// through the previous generation's memo mapping splices a fragment whose
// signature is Result.Signature — the current one, under which the serve
// layer enqueues the background replan — not the old entry's.
func TestServeStaleFragmentNamesCurrentSignature(t *testing.T) {
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	q := namedQuery(t, 8, 511, "svc-")
	first, err := p.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	observeCovering(t, reg, truth, 1)
	if reg.Generation() == 0 {
		t.Fatal("no drift generation published")
	}

	res, ok := p.ServeStale(q)
	if !ok || !res.Stale {
		t.Fatalf("ServeStale after drift = (stale=%v, ok=%v), want a stale answer", res.Stale, ok)
	}
	if res.Signature == first.Signature {
		t.Fatal("the drift left the signature unchanged, so the stale memo mapping was not exercised")
	}
	if want := `"signature":"` + res.Signature.String() + `"`; !bytes.Contains(res.ResponseFragment, []byte(want)) {
		t.Fatalf("stale fragment %s does not carry Result.Signature %s", res.ResponseFragment, res.Signature)
	}
	if want := `"cost":` + string(appendJSONFloat(nil, first.Cost)) + `,`; !bytes.HasPrefix(res.ResponseFragment, []byte(want)) {
		t.Fatalf("stale fragment %s does not carry the previous answer's cost %v", res.ResponseFragment, first.Cost)
	}
}

func TestSnapshotRoundtripWarmBoot(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()
	const queries = 20
	costs := make(map[Signature]float64, queries)
	for i := int64(0); i < queries; i++ {
		q := testQuery(t, gen.Default(8, 600+i))
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		costs[res.Signature] = res.Cost
	}

	var buf bytes.Buffer
	dumped, err := p.SaveSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dumped != queries {
		t.Fatalf("dumped %d entries, want %d", dumped, queries)
	}

	// Warm boot: a fresh planner restores the snapshot and serves every
	// query from cache — zero searches in its first window.
	p2 := New(Config{})
	restored, err := p2.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != queries {
		t.Fatalf("restored %d entries, want %d", restored, queries)
	}
	for i := int64(0); i < queries; i++ {
		q := testQuery(t, gen.Default(8, 600+i))
		res, err := p2.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("query %d missed after restore", i)
		}
		if res.Stale {
			t.Fatalf("query %d served stale after same-world restore", i)
		}
		if want := costs[res.Signature]; res.Cost != want {
			t.Fatalf("query %d cost %v after restore, want %v", i, res.Cost, want)
		}
		if res.ResponseFragment == nil || !strings.Contains(string(res.ResponseFragment), res.Signature.String()) {
			t.Fatalf("restored entry fragment not rebuilt: %q", res.ResponseFragment)
		}
	}
	if s := p2.Stats(); s.Searches != 0 {
		t.Fatalf("restored planner ran %d searches, want 0", s.Searches)
	}
}

// TestSnapshotGenValidation pins the restore-time generation rules: a
// matching world preserves stamps; a mismatched world restamps everything
// with the stale sentinel so pre-drift plans are NEVER served fresh.
func TestSnapshotGenValidation(t *testing.T) {
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := New(Config{Adaptive: reg})
	ctx := context.Background()
	q := namedQuery(t, 8, 511, "svc-")
	first, err := p.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Drift so the dump carries a nonzero header generation and the
	// resident entry is refreshed under it.
	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	truth.Services[0].Selectivity *= 0.5
	observeCovering(t, reg, truth, 1)
	driftGen := reg.Generation()
	if driftGen == 0 {
		t.Fatal("no drift published")
	}
	if _, err := p.Optimize(ctx, q); err != nil { // replan under driftGen
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a restarted node: fresh registry, generation 0 — a
	// different world. The restored entry must read stale, never fresh.
	p2 := New(Config{Adaptive: adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})})
	if _, err := p2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if temp := p2.Classify(q); temp == TempWarm {
		t.Fatal("mismatched-world restore classified warm: a drifted plan would serve as fresh")
	}
	res, err := p2.Optimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("mismatched-world restore served a cache hit as fresh")
	}
	// The stale entry still pulls its weight: the search is seeded from it.
	if !res.Replanned {
		t.Fatal("restored stale entry did not seed the replan")
	}

	// Same-world restore (no adaptive registry on either side, generation
	// 0 == 0): stamps are preserved and hits are fresh.
	p3 := New(Config{})
	var buf0 bytes.Buffer
	q0 := testQuery(t, gen.Default(8, 880))
	want, err := p3.Optimize(ctx, q0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.SaveSnapshot(&buf0); err != nil {
		t.Fatal(err)
	}
	p4 := New(Config{})
	if _, err := p4.LoadSnapshot(bytes.NewReader(buf0.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := p4.Optimize(ctx, q0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Cost != want.Cost {
		t.Fatalf("same-world restore: cached=%v cost=%v, want fresh hit at %v", got.Cached, got.Cost, want.Cost)
	}
	_ = first
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()
	for i := int64(0); i < 5; i++ {
		if _, err := p.Optimize(ctx, testQuery(t, gen.Default(7, 700+i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the middle: the checksum must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := New(Config{}).LoadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
	// Truncation is caught too.
	if _, err := New(Config{}).LoadSnapshot(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	// And an empty snapshot from a cacheless planner is valid.
	var empty bytes.Buffer
	if n, err := New(Config{CacheCapacity: -1}).SaveSnapshot(&empty); err != nil || n != 0 {
		t.Fatalf("empty snapshot dump = (%d, %v)", n, err)
	}
	if n, err := New(Config{}).LoadSnapshot(bytes.NewReader(empty.Bytes())); err != nil || n != 0 {
		t.Fatalf("empty snapshot load = (%d, %v)", n, err)
	}
}

// Temperature strings surface in diagnostics; pin all three.
func TestTemperatureString(t *testing.T) {
	for temp, want := range map[Temperature]string{TempWarm: "warm", TempStale: "stale", TempCold: "cold"} {
		if got := temp.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", temp, got, want)
		}
	}
}

// TestSnapshotHeaderValidation covers the corruption the CRC cannot
// catch — damage introduced before the checksum was computed (a buggy
// or hostile writer). Each case re-seals the mutated body under a
// fresh, valid CRC so only the targeted check can reject it.
func TestSnapshotHeaderValidation(t *testing.T) {
	p := New(Config{})
	if _, err := p.Optimize(context.Background(), testQuery(t, gen.Default(7, 7100))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[:buf.Len()-4]

	reseal := func(mut func(b []byte) []byte) []byte {
		b := mut(append([]byte(nil), body...))
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, snapshotCRC))
	}
	cases := map[string][]byte{
		"bad magic":      reseal(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":    reseal(func(b []byte) []byte { b[4] = 99; return b }),
		"absurd count":   reseal(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[14:], snapshotMaxEntries+1); return b }),
		"trailing bytes": reseal(func(b []byte) []byte { return append(b, 0) }),
	}
	for name, snap := range cases {
		if _, err := New(Config{}).LoadSnapshot(bytes.NewReader(snap)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}
