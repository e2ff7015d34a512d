package domtable

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestNewSizing(t *testing.T) {
	if New(1, 1<<20) != nil {
		t.Errorf("New accepted n=1")
	}
	if New(MaxN+1, 1<<20) != nil {
		t.Errorf("New accepted n=%d", MaxN+1)
	}
	if New(10, 0) != nil {
		t.Errorf("New accepted a zero-byte cap")
	}

	// Small n: the floor applies (the 1/8-of-state-space target is below
	// it) and the table stays far under the cap.
	tab := New(10, 16<<20)
	if tab == nil {
		t.Fatal("New(10) = nil")
	}
	if tab.Entries() < minEntries || tab.Bytes() > 16<<20 {
		t.Errorf("entries = %d (bytes %d), want >= %d under the cap", tab.Entries(), tab.Bytes(), minEntries)
	}
	// Mid n: the 1/8 target takes over and scales with the state space.
	mid := New(16, 64<<20)
	if want := 16 * (1 << 15) / 8; mid.Entries() < want/2 {
		t.Errorf("n=16 entries = %d, want >= %d", mid.Entries(), want/2)
	}

	// Large n: the cap binds.
	capped := New(30, 1<<20)
	if capped == nil {
		t.Fatal("New(30) = nil")
	}
	if capped.Bytes() > 1<<20 {
		t.Errorf("capped table uses %d bytes, cap 1MiB", capped.Bytes())
	}
	if capped.Entries()&(capped.Entries()-1) != 0 {
		t.Errorf("entries %d not a power of two", capped.Entries())
	}
}

func TestProbeUpdateMin(t *testing.T) {
	tab := New(8, 1<<20)
	mask := uint64(0b10110)
	prod := math.Float64bits(0.75)
	if _, ok := tab.Probe(mask, 2, prod); ok {
		t.Fatal("probe hit on an empty table")
	}
	if !tab.Update(mask, 2, prod, 5.0) {
		t.Fatal("update rejected")
	}
	if v, ok := tab.Probe(mask, 2, prod); !ok || v != 5.0 {
		t.Fatalf("probe = (%v, %v), want (5, true)", v, ok)
	}
	// Same mask, different last: a distinct state.
	if _, ok := tab.Probe(mask, 4, prod); ok {
		t.Fatal("probe leaked across last-element variants")
	}
	// Same (mask, last), product bits an ulp apart: a distinct state — the
	// bitwise product match is what keeps dominance float-exact.
	if _, ok := tab.Probe(mask, 2, prod+1); ok {
		t.Fatal("probe leaked across product-bit variants")
	}
	// Updates keep the minimum.
	tab.Update(mask, 2, prod, 7.0)
	if v, _ := tab.Probe(mask, 2, prod); v != 5.0 {
		t.Fatalf("worse update lowered the bound: %v", v)
	}
	tab.Update(mask, 2, prod, 3.0)
	if v, _ := tab.Probe(mask, 2, prod); v != 3.0 {
		t.Fatalf("better update ignored: %v", v)
	}
	// Rejected inputs.
	if tab.Update(mask, 2, prod, -1) || tab.Update(mask, 2, prod, math.NaN()) {
		t.Fatal("negative/NaN bound accepted")
	}
	// A +0.0 bound collides with the "unset" sentinel: it must be
	// rejected rather than overwrite the resident bound with a value
	// every probe treats as absent.
	if tab.Update(mask, 2, prod, 0) {
		t.Fatal("zero bound accepted")
	}
	if v, ok := tab.Probe(mask, 2, prod); !ok || v != 3.0 {
		t.Fatalf("zero-bound publish destroyed the entry: (%v, %v), want (3, true)", v, ok)
	}
}

func TestVisitDominance(t *testing.T) {
	tab := New(8, 1<<20)
	mask := uint64(0b111)
	prod := math.Float64bits(0.5)
	if tab.Visit(mask, 1, prod, 4.0) {
		t.Fatal("first visit reported dominated")
	}
	if !tab.Visit(mask, 1, prod, 4.0) {
		t.Fatal("equal revisit not dominated (the first visitor committed to the subtree)")
	}
	if !tab.Visit(mask, 1, prod, 9.0) {
		t.Fatal("worse revisit not dominated")
	}
	if tab.Visit(mask, 1, prod+1, 9.0) {
		t.Fatal("revisit with different product bits dominated")
	}
	if tab.Visit(mask, 1, prod, 2.0) {
		t.Fatal("improving revisit dominated")
	}
	if v, _ := tab.Probe(mask, 1, prod); v != 2.0 {
		t.Fatalf("bound after improving visit = %v, want 2", v)
	}
}

func TestNilTableIsInert(t *testing.T) {
	var tab *Table
	if _, ok := tab.Probe(1, 0, 0); ok {
		t.Fatal("nil probe hit")
	}
	if tab.Update(1, 0, 0, 1) {
		t.Fatal("nil update succeeded")
	}
	if tab.Visit(3, 0, 0, 1) {
		t.Fatal("nil visit dominated")
	}
	if tab.Occupancy() != 0 || tab.AdmitBand(10) != 0 {
		t.Fatal("nil table reports non-zero occupancy/band")
	}
	tab.Range(func(uint64, int, uint64, float64) { t.Fatal("nil range called back") })
}

func TestEvictionUnderPressure(t *testing.T) {
	// A deliberately tiny table: far more states than slots forces the
	// clock hand to recycle, and every probe must keep returning values
	// that were actually published for that exact state.
	tab := New(20, 64*EntryBytes)
	if tab == nil {
		t.Fatal("New = nil")
	}
	rng := rand.New(rand.NewSource(7))
	type st struct {
		mask uint64
		last int
		prod uint64
		val  float64
	}
	var states []st
	for i := 0; i < 4096; i++ {
		mask := uint64(rng.Intn(1<<20)) | 1
		last := 0
		for b := 0; b < 20; b++ {
			if mask&(1<<uint(b)) != 0 && rng.Intn(3) == 0 {
				last = b
			}
		}
		prod := math.Float64bits(0.5 + rng.Float64()/2)
		v := float64(i%97) + 1
		tab.Update(mask, last, prod, v)
		states = append(states, st{mask, last, prod, v})
	}
	if tab.Evictions() == 0 {
		t.Fatalf("no evictions after %d inserts into %d slots", len(states), tab.Entries())
	}
	if occ := tab.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy = %v, want (0, 1]", occ)
	}
	// Range must only yield published (state, value <= published) pairs.
	type fullKey struct {
		key  uint64
		prod uint64
	}
	min := map[fullKey]float64{}
	for _, s := range states {
		k := fullKey{tab.Key(s.mask, s.last), s.prod}
		if cur, ok := min[k]; !ok || s.val < cur {
			min[k] = s.val
		}
	}
	tab.Range(func(mask uint64, last int, prod uint64, v float64) {
		k := fullKey{tab.Key(mask, last), prod}
		lo, ok := min[k]
		if !ok {
			t.Fatalf("range yielded never-published state (mask=%b last=%d)", mask, last)
		}
		if v < lo {
			t.Fatalf("state (mask=%b last=%d) holds %v below the published minimum %v", mask, last, v, lo)
		}
	})
}

func TestAdmitBand(t *testing.T) {
	// With the whole state space resident the band reaches n-1.
	full := New(12, 16<<20)
	if band := full.AdmitBand(12); band != 11 {
		t.Errorf("uncapped band = %d, want 11", band)
	}
	// Under a tight cap the band pulls back toward shallow depths.
	tight := New(24, 64<<10)
	if band := tight.AdmitBand(24); band >= 23 || band < 2 {
		t.Errorf("capped band = %d, want in [2, 22]", band)
	}
}

// TestConcurrentStress is the shared-table race test (run under -race):
// goroutines hammer a small, eviction-heavy table with interleaved visits,
// updates, and probes over a fixed key population whose values encode the
// key they belong to. Any torn read, cross-key leak, or min violation is
// detected; the race detector checks the memory model side.
func TestConcurrentStress(t *testing.T) {
	const (
		n          = 16
		keys       = 512
		goroutines = 8
		opsPer     = 20_000
	)
	tab := New(n, 96*EntryBytes) // tiny: constant eviction pressure
	if tab == nil {
		t.Fatal("New = nil")
	}

	type ks struct {
		mask uint64
		last int
		prod uint64
	}
	pop := make([]ks, keys)
	rng := rand.New(rand.NewSource(42))
	seen := map[uint64]bool{}
	for i := range pop {
		for {
			mask := uint64(rng.Intn(1<<n)) | 3
			last := 0
			for b := n - 1; b >= 0; b-- {
				if mask&(1<<uint(b)) != 0 {
					last = b
					break
				}
			}
			k := tab.Key(mask, last)
			if !seen[k] {
				seen[k] = true
				pop[i] = ks{mask, last, math.Float64bits(0.5 + float64(i)/float64(2*keys))}
				break
			}
		}
	}
	// value published for key i is always i*1000 + delta, delta in [0,1000):
	// reading any value outside key i's band is a cross-key leak.
	band := func(i int) (lo, hi float64) { return float64(i) * 1000, float64(i+1) * 1000 }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for op := 0; op < opsPer; op++ {
				i := rng.Intn(keys)
				k := pop[i]
				lo, hi := band(i)
				switch op % 3 {
				case 0:
					tab.Update(k.mask, k.last, k.prod, lo+float64(rng.Intn(1000)))
				case 1:
					v := lo + float64(rng.Intn(1000))
					tab.Visit(k.mask, k.last, k.prod, v)
				default:
					if v, ok := tab.Probe(k.mask, k.last, k.prod); ok && (v < lo || v >= hi) {
						t.Errorf("key %d: probe returned %v outside [%v, %v) — cross-key leak", i, v, lo, hi)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Post-quiescence: every resident state's value must sit in its band.
	byKey := map[uint64]int{}
	for i, k := range pop {
		byKey[tab.Key(k.mask, k.last)] = i
	}
	tab.Range(func(mask uint64, last int, prod uint64, v float64) {
		i, ok := byKey[tab.Key(mask, last)]
		if !ok {
			t.Fatalf("resident state (mask=%b last=%d) was never part of the population", mask, last)
		}
		if lo, hi := band(i); v < lo || v >= hi || prod != pop[i].prod {
			t.Fatalf("key %d holds (%v, prod %x) outside its band [%v, %v) / prod %x", i, v, prod, lo, hi, pop[i].prod)
		}
	})
}

// resetState is one (mask, last, prod) state of the reset tests'
// population.
type resetState struct {
	mask uint64
	last int
	prod uint64
}

// resetPopulation draws count distinct-ish states over n elements; about
// one in four shares its (mask, last) with the previous state under
// product bits one ulp apart, so the product-bit variants compete for the
// same sets too.
func resetPopulation(n, count int, seed int64) []resetState {
	rng := rand.New(rand.NewSource(seed))
	pop := make([]resetState, count)
	for i := range pop {
		if i > 0 && rng.Intn(4) == 0 {
			pop[i] = pop[i-1]
			pop[i].prod++
			continue
		}
		mask := uint64(rng.Intn(1<<n)) | 1
		last := 0
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 && rng.Intn(2) == 0 {
				last = b
			}
		}
		pop[i] = resetState{mask, last, math.Float64bits(0.5 + rng.Float64()/2)}
	}
	return pop
}

// tableTrace is everything a seeded operation sequence observes of a
// table: every return value in order, then the counters and the resident
// set.
type tableTrace struct {
	results   []float64
	hits      int // probe hits and dominated visits
	occupancy float64
	evictions int64
	resident  map[resetState]float64
}

// drive runs one seeded sequence of Visit, Update and Probe calls over pop
// with bounds in [lo, lo+100) and records what the table answers.
func drive(tab *Table, pop []resetState, ops int, seed int64, lo float64) tableTrace {
	rng := rand.New(rand.NewSource(seed))
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	var tr tableTrace
	for op := 0; op < ops; op++ {
		s := pop[rng.Intn(len(pop))]
		bound := lo + float64(rng.Intn(100))
		switch rng.Intn(3) {
		case 0:
			dominated := tab.Visit(s.mask, s.last, s.prod, bound)
			tr.results = append(tr.results, flag(dominated))
			tr.hits += int(flag(dominated))
		case 1:
			tr.results = append(tr.results, flag(tab.Update(s.mask, s.last, s.prod, bound)))
		default:
			v, ok := tab.Probe(s.mask, s.last, s.prod)
			tr.results = append(tr.results, v, flag(ok))
			tr.hits += int(flag(ok))
		}
	}
	tr.occupancy = tab.Occupancy()
	tr.evictions = tab.Evictions()
	tr.resident = map[resetState]float64{}
	tab.Range(func(mask uint64, last int, prod uint64, bound float64) {
		tr.resident[resetState{mask, last, prod}] = bound
	})
	return tr
}

// sameTrace fails t where got, the trace of a reused table, departs from
// want, a fresh table's.
func sameTrace(t *testing.T, got, want tableTrace) {
	t.Helper()
	for i := range want.results {
		if got.results[i] != want.results[i] {
			t.Fatalf("result %d: reused table answered %v, fresh table %v", i, got.results[i], want.results[i])
		}
	}
	if got.occupancy != want.occupancy || got.evictions != want.evictions {
		t.Fatalf("reused table occupancy %v, evictions %d; fresh table %v, %d",
			got.occupancy, got.evictions, want.occupancy, want.evictions)
	}
	if len(got.resident) != len(want.resident) {
		t.Fatalf("reused table holds %d states, fresh table %d", len(got.resident), len(want.resident))
	}
	for s, v := range want.resident {
		if gv, ok := got.resident[s]; !ok || gv != v {
			t.Fatalf("state %+v: reused table holds (%v, %v), fresh table %v", s, gv, ok, v)
		}
	}
}

// The sequence a reused table must replay exactly: 1024 states through 256
// slots, so every set overflows and the clock hands choose victims
// throughout.
const (
	resetN     = 16
	resetSlots = 256
	resetOps   = 30_000
)

// dirty runs a seeded sequence over pop and as many other states under
// bounds below any the replayed sequence uses, so a leaked entry would
// dominate arrivals a fresh table lets through.
func dirty(tab *Table, pop []resetState, seed int64) {
	others := resetPopulation(resetN, len(pop), seed)
	drive(tab, append(append([]resetState(nil), pop...), others...), resetOps, seed, 1)
}

// TestResetTableReplaysFresh is the recycling property: a table filled
// under other queries' bounds and then reset answers one seeded,
// eviction-heavy operation sequence exactly as a freshly built table
// does — every return value, the occupancy and eviction counters, and the
// resident set.
func TestResetTableReplaysFresh(t *testing.T) {
	pop := resetPopulation(resetN, 1024, 11)
	want := drive(New(resetN, resetSlots*EntryBytes), pop, resetOps, 12, 500)
	if want.evictions == 0 {
		t.Fatalf("sequence never evicts (occupancy %v); it cannot exercise the clock hands", want.occupancy)
	}
	if want.hits == 0 {
		t.Fatal("sequence never hits; it cannot tell a leaked entry from a fresh miss")
	}

	reused := New(resetN, resetSlots*EntryBytes)
	for round := 0; round < 3; round++ {
		dirty(reused, pop, int64(100+round))
		reused.reset()
		sameTrace(t, drive(reused, pop, resetOps, 12, 500), want)
	}
}

// TestResetGenerationWraparound covers the one reset that is not O(1):
// when the generation counter wraps back to the generation a slot was
// first written under, reset must clear the slots, or that slot's state
// would read as current again.
func TestResetGenerationWraparound(t *testing.T) {
	pop := resetPopulation(resetN, 1024, 21)
	want := drive(New(resetN, resetSlots*EntryBytes), pop, resetOps, 22, 500)

	tab := New(resetN, resetSlots*EntryBytes)
	dirty(tab, pop, 200)         // written under generation 0
	tab.gen = math.MaxUint32     // stands in for 2^32 - 1 resets
	for _, s := range pop[:32] { // a few slots of the last generation
		tab.Update(s.mask, s.last, s.prod, 1)
	}
	tab.reset() // wraps to generation 0
	sameTrace(t, drive(tab, pop, resetOps, 22, 500), want)
}

// TestGetPut pins the pool's contract: Get hands out tables of exactly
// New's shape, empty whatever their history, refuses the element counts
// New refuses (MaxServices-sized searches reach Get too), and never
// recycles a table larger than maxPooledBytes.
func TestGetPut(t *testing.T) {
	for _, n := range []int{1, MaxN + 1, 64} {
		if Get(n, DefaultTableBytes) != nil {
			t.Errorf("Get(%d) returned a table", n)
		}
	}
	if Get(10, 0) != nil {
		t.Error("Get accepted a zero-byte cap")
	}
	Put(nil)

	pop := resetPopulation(12, 512, 31)
	for round := 0; round < 4; round++ {
		tab := Get(12, DefaultTableBytes)
		if want := New(12, DefaultTableBytes).Entries(); tab.Entries() != want {
			t.Fatalf("round %d: Get built %d slots, New %d", round, tab.Entries(), want)
		}
		if tab.Occupancy() != 0 || tab.Evictions() != 0 {
			t.Fatalf("round %d: Get returned occupancy %v, evictions %d", round, tab.Occupancy(), tab.Evictions())
		}
		tab.Range(func(uint64, int, uint64, float64) { t.Fatalf("round %d: Get returned a table holding states", round) })
		for _, s := range pop {
			if _, ok := tab.Probe(s.mask, s.last, s.prod); ok {
				t.Fatalf("round %d: Get returned a table with a stale hit", round)
			}
			tab.Update(s.mask, s.last, s.prod, 1)
		}
		Put(tab)
	}

	// A pooled table sized under one cap never serves a request for
	// another.
	Put(Get(16, DefaultTableBytes))
	small := Get(16, 64<<10)
	if want := New(16, 64<<10).Entries(); small.Entries() != want {
		t.Fatalf("Get under a 64 KiB cap built %d slots, New %d", small.Entries(), want)
	}

	// The 10 MiB tables of n = 18 up go back to the collector.
	big := Get(18, DefaultTableBytes)
	if big.Bytes() <= maxPooledBytes {
		t.Fatalf("n=18 table is %d bytes, within the %d-byte pool bound", big.Bytes(), maxPooledBytes)
	}
	Put(big)
	if Get(18, DefaultTableBytes) == big {
		t.Fatal("Get recycled a table larger than the pool bound")
	}
}
