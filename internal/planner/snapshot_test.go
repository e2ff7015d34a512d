package planner

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/htier"
)

// SOP1 restore under crafted input: documents whose CRC is valid but whose
// entries no request could be answered from.

// sealSnapshot builds a CRC-valid SOP1 document at header generation 0
// announcing count entries, from an already encoded entry section.
func sealSnapshot(count uint32, entries []byte) []byte {
	return appendSnapshotCRC(append(appendSnapshotHeader(nil, 0, count), entries...))
}

// snapshotOf encodes each entry under sig as one CRC-valid document.
func snapshotOf(sig Signature, entries ...*cacheEntry) []byte {
	var body []byte
	for _, e := range entries {
		body = appendSnapshotEntry(body, sig, 0, e)
	}
	return sealSnapshot(uint32(len(entries)), body)
}

func identityPlan(n int) []int {
	plan := make([]int, n)
	for i := range plan {
		plan[i] = i
	}
	return plan
}

// craftedSnapshots are CRC-valid documents under sig. Every one but the
// two length cases is unservable on its face and must be refused whole;
// the loader cannot see the two length cases (the signature does not
// carry the service count), so the lookup must refuse to answer from them.
func craftedSnapshots(sig Signature) (refused, misfit map[string][]byte) {
	entry := func(plan []int, cost float64, tier string) *cacheEntry {
		return &cacheEntry{plan: plan, cost: cost, optimal: true, tier: tier}
	}
	valid := entry(identityPlan(10), 5, TierExact)
	dup := identityPlan(70)
	dup[69] = 5
	twoEntries := snapshotOf(sig, valid, valid)
	return map[string][]byte{
			"duplicate service past 64": snapshotOf(sig, entry(dup, 5, TierExact)),
			"service out of range":      snapshotOf(sig, entry([]int{0, 1, 10}, 5, TierExact)),
			"empty plan":                snapshotOf(sig, entry(nil, 5, TierExact)),
			"NaN cost":                  snapshotOf(sig, entry(identityPlan(10), math.NaN(), TierExact)),
			"infinite cost":             snapshotOf(sig, entry(identityPlan(10), math.Inf(1), TierExact)),
			"negative cost":             snapshotOf(sig, entry(identityPlan(10), -1, TierExact)),
			"tier splices JSON":         snapshotOf(sig, entry(identityPlan(10), 5, `exact","injected":"x`)),
			"unknown heuristic member":  snapshotOf(sig, entry(identityPlan(10), 5, tierHeuristicPrefix+"oracle")),
			"second entry truncated":    sealSnapshot(2, twoEntries[snapshotHeaderLen:len(twoEntries)-4-3]),
		}, map[string][]byte{
			"plan too short": snapshotOf(sig, entry(identityPlan(3), 5, TierExact)),
			"plan too long":  snapshotOf(sig, entry(identityPlan(12), 5, TierExact)),
		}
}

func TestLoadSnapshotRefusesUnservable(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(10, 42))
	sig, _ := New(Config{}).SignatureFor(q)
	want, err := core.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	refused, misfit := craftedSnapshots(sig)
	for name, doc := range refused {
		p := New(Config{})
		if n, err := p.LoadSnapshot(bytes.NewReader(doc)); err == nil || n != 0 {
			t.Errorf("%s: LoadSnapshot = (%d, %v), want a refusal", name, n, err)
		}
		if entries := p.Stats().Entries; entries != 0 {
			t.Errorf("%s: refused document left %d entries resident", name, entries)
		}
	}
	for name, doc := range misfit {
		p := New(Config{})
		if _, err := p.LoadSnapshot(bytes.NewReader(doc)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := p.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cached || res.Plan.Validate(q) != nil || res.Cost != want.Cost {
			t.Errorf("%s: answered plan %v cost %v cached=%v, want a fresh search at %v", name, res.Plan, res.Cost, res.Cached, want.Cost)
		}
		// The search's entry replaces the misfit, so the next request hits.
		if res, err := p.Optimize(context.Background(), q); err != nil || !res.Cached || res.Cost != want.Cost {
			t.Errorf("%s: repeat = (cached=%v cost=%v err=%v), want a hit at %v", name, res.Cached, res.Cost, err, want.Cost)
		}
	}
}

// FuzzLoadSnapshot: LoadSnapshot never panics, changes nothing when it
// refuses, restores only entries that pass its checks, and what it
// restores survives a save and a load into a fresh planner. A mutation
// almost never keeps the checksum valid, so each input is also loaded with
// its trailer re-sealed: that is what reaches the entry decoder.
func FuzzLoadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoadSnapshot(t, data)
		if len(data) >= 4 {
			checkLoadSnapshot(t, appendSnapshotCRC(bytes.Clone(data[:len(data)-4])))
		}
	})
}

func checkLoadSnapshot(t *testing.T, doc []byte) {
	t.Helper()
	p := New(Config{CacheCapacity: 64})
	n, err := p.LoadSnapshot(bytes.NewReader(doc))
	if err != nil {
		if n != 0 || p.Stats().Entries != 0 {
			t.Fatalf("refused document restored %d entries (%d resident): %v", n, p.Stats().Entries, err)
		}
		return
	}
	p.cache.store.Range(func(sig Signature, e *cacheEntry, _ uint64) bool {
		if err := checkRestored(e.plan, e.cost, e.tier); err != nil {
			t.Fatalf("restored entry %s fails the restore checks: %v", sig, err)
		}
		return true
	})
	var buf bytes.Buffer
	dumped, err := p.SaveSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := New(Config{CacheCapacity: 64}).LoadSnapshot(&buf)
	if err != nil || again != dumped {
		t.Fatalf("save then load restored %d of %d entries: %v", again, dumped, err)
	}
}

// TestRestoreAcceptsEveryPortfolioTier: every member of the heuristic
// portfolio labels its plans with a tier the restore check accepts, and so
// does a fallback that keeps the exact attempt's incumbent, so no snapshot
// the planner writes is refused for its tiers.
func TestRestoreAcceptsEveryPortfolioTier(t *testing.T) {
	t.Parallel()
	q := testQuery(t, gen.Default(16, 5))
	res, err := htier.Plan(q, htier.Options{Seed: identityPlan(16)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != len(heuristicMembers) {
		t.Fatalf("%d portfolio members ran, the restore check knows %d", len(res.Members), len(heuristicMembers))
	}
	tiers := []string{tierIncumbent}
	for _, m := range res.Members {
		tiers = append(tiers, tierHeuristicPrefix+m.Name)
	}
	for _, tier := range tiers {
		if err := checkRestored(identityPlan(3), 1, tier); err != nil {
			t.Errorf("tier %s: %v", tier, err)
		}
	}
}

// TestSnapshotVersionGate: a document written under another snapshot
// version — here version 1, whose signatures came from refining every
// partition — is refused whole with ErrSnapshotVersion, from disk and as a
// fleet push alike, and restores nothing, while the same document at the
// current version restores every entry. The committed "valid" fuzz seed is
// at the current version, so it still reaches the restore path.
func TestSnapshotVersionGate(t *testing.T) {
	t.Parallel()
	src := New(Config{})
	for seed := int64(0); seed < 3; seed++ {
		if _, err := src.Optimize(context.Background(), testQuery(t, gen.Default(6, 100+seed))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if n, err := src.SaveSnapshot(&buf); err != nil || n != 3 {
		t.Fatalf("SaveSnapshot = (%d, %v), want 3 entries", n, err)
	}
	doc := buf.Bytes()
	v1 := bytes.Clone(doc[:len(doc)-4])
	binary.LittleEndian.PutUint16(v1[4:], 1)
	v1 = appendSnapshotCRC(v1)

	p := New(Config{})
	if n, err := p.LoadSnapshot(bytes.NewReader(v1)); !errors.Is(err, ErrSnapshotVersion) || n != 0 {
		t.Errorf("LoadSnapshot(version 1) = (%d, %v), want a refusal wrapping ErrSnapshotVersion", n, err)
	}
	if n, _, err := p.ImportEntry(v1); !errors.Is(err, ErrSnapshotVersion) || n != 0 {
		t.Errorf("ImportEntry(version 1) = (%d, %v), want a refusal wrapping ErrSnapshotVersion", n, err)
	}
	if entries := p.Stats().Entries; entries != 0 {
		t.Fatalf("refused version-1 documents left %d entries resident", entries)
	}
	if n, err := p.LoadSnapshot(bytes.NewReader(doc)); err != nil || n != 3 {
		t.Fatalf("LoadSnapshot(version %d) = (%d, %v), want 3 entries", snapshotVersion, n, err)
	}

	raw, err := os.ReadFile("testdata/fuzz/FuzzLoadSnapshot/valid")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("fuzz seed: %v", err)
	}
	if n, err := New(Config{}).LoadSnapshot(strings.NewReader(seed)); err != nil || n != 4 {
		t.Fatalf("the valid fuzz seed restored (%d, %v), want 4 entries", n, err)
	}
}
