package planner

import (
	"context"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

// The lookup-counter ledger: every entry point that reads the plan cache or
// the canonicalization memo, with the exact counter deltas it produces.
// Touches counts every read that freshly sets an entry's clock touch bit,
// whichever entry point made the read.

// ledger is the slice of Stats the lookup path moves.
type ledger struct {
	Hits, Misses, MemoHits, Touches, Searches, SharedWaits, Replans int64
}

func ledgerOf(s Stats) ledger {
	return ledger{s.Hits, s.Misses, s.MemoHits, s.Touches, s.Searches, s.SharedWaits, s.Replans}
}

func (l ledger) minus(o ledger) ledger {
	return ledger{l.Hits - o.Hits, l.Misses - o.Misses, l.MemoHits - o.MemoHits, l.Touches - o.Touches,
		l.Searches - o.Searches, l.SharedWaits - o.SharedWaits, l.Replans - o.Replans}
}

// ledgerDrift publishes a generation whose overlay moves q's effective
// parameters (and so its signature).
func ledgerDrift(t *testing.T, reg *adapt.Registry, q *model.Query) {
	t.Helper()
	truth := q.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	truth.Services[0].Selectivity *= 0.5
	observeCovering(t, reg, truth, 1)
	if reg.Generation() == 0 {
		t.Fatal("no drift generation published")
	}
}

// optimizeWithFollower runs one leader and one singleflight follower for q
// and reports whether the follower shared the leader's search. The leader
// is held inside its search until the follower has counted its miss; a
// follower that still loses the race to the flight reports false.
func optimizeWithFollower(t *testing.T, p *Planner, release chan struct{}, q *model.Query) bool {
	t.Helper()
	ctx := context.Background()
	leader := make(chan error, 1)
	go func() { _, err := p.Optimize(ctx, q); leader <- err }()
	for p.Stats().Searches == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	follower := make(chan Result, 1)
	go func() {
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		follower <- res
	}()
	for p.Stats().Misses < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond) // from its miss to the flight wait
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	return (<-follower).Shared
}

func TestLookupCounterLedger(t *testing.T) {
	ctx := context.Background()
	q := namedQuery(t, 8, 511, "ledger-")
	adaptive := func() (*Planner, *adapt.Registry) {
		reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
		return New(Config{Adaptive: reg}), reg
	}
	solve := func(t *testing.T, p *Planner) Result {
		t.Helper()
		res, err := p.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// solved is a planner with q's plan resident and untouched; drifted
	// additionally has a generation published past it.
	solved := func(t *testing.T) *Planner { p, _ := adaptive(); solve(t, p); return p }
	drifted := func(t *testing.T) *Planner {
		p, reg := adaptive()
		solve(t, p)
		ledgerDrift(t, reg, q)
		return p
	}

	rows := []struct {
		name  string
		setup func(t *testing.T) *Planner
		run   func(t *testing.T, p *Planner)
		want  ledger
	}{
		{"optimize/miss", func(*testing.T) *Planner { p, _ := adaptive(); return p },
			func(t *testing.T, p *Planner) { solve(t, p) },
			ledger{Misses: 1, Searches: 1}},
		{"optimize/hit", solved,
			func(t *testing.T, p *Planner) { solve(t, p) },
			ledger{Hits: 1, MemoHits: 1, Touches: 1}},
		{"optimize/replan", drifted,
			func(t *testing.T, p *Planner) {
				if !solve(t, p).Replanned {
					t.Fatal("post-drift optimize did not replan")
				}
			},
			ledger{Misses: 1, Touches: 1, Searches: 1, Replans: 1}},
		{"classify/warm", solved,
			func(t *testing.T, p *Planner) { expectTemp(t, p.Classify(q), TempWarm) },
			ledger{Touches: 1}},
		{"classify/stale", drifted,
			func(t *testing.T, p *Planner) { expectTemp(t, p.Classify(q), TempStale) },
			ledger{Touches: 1}},
		{"classify/cold", func(*testing.T) *Planner { p, _ := adaptive(); return p },
			func(t *testing.T, p *Planner) { expectTemp(t, p.Classify(q), TempCold) },
			ledger{}},
		{"serve-stale/fresh", solved,
			func(t *testing.T, p *Planner) {
				if res, ok := p.ServeStale(q); !ok || res.Stale {
					t.Fatalf("ServeStale = (stale=%v, ok=%v), want a fresh answer", res.Stale, ok)
				}
			},
			ledger{Hits: 1, Touches: 1}},
		{"serve-stale/stale", drifted,
			func(t *testing.T, p *Planner) {
				if res, ok := p.ServeStale(q); !ok || !res.Stale {
					t.Fatalf("ServeStale = (stale=%v, ok=%v), want a stale answer", res.Stale, ok)
				}
			},
			ledger{Misses: 1, Touches: 1}},
		{"signature-for", solved,
			func(t *testing.T, p *Planner) {
				if _, ok := p.SignatureFor(q); !ok {
					t.Fatal("SignatureFor refused")
				}
			},
			ledger{}},
		{"resident-fresh", solved,
			func(t *testing.T, p *Planner) {
				sig, _ := p.SignatureFor(q)
				if !p.ResidentFresh(sig) {
					t.Fatal("solved entry not resident fresh")
				}
			},
			ledger{Touches: 1}},
		{"export-entry", solved,
			func(t *testing.T, p *Planner) {
				sig, _ := p.SignatureFor(q)
				if _, ok := p.ExportEntry(sig); !ok {
					t.Fatal("ExportEntry refused a resident entry")
				}
			},
			ledger{Touches: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := row.setup(t)
			before := ledgerOf(p.Stats())
			row.run(t, p)
			if got := ledgerOf(p.Stats()).minus(before); got != row.want {
				t.Errorf("deltas %+v, want %+v", got, row.want)
			}
		})
	}

	// The singleflight row: one leader plus one follower that shares its
	// search. The follower's memo hit follows the leader's memoized miss.
	t.Run("optimize/follower", func(t *testing.T) {
		for attempt := 0; attempt < 20; attempt++ {
			release := make(chan struct{})
			p := New(Config{OnSearch: func(Signature) { <-release }})
			if !optimizeWithFollower(t, p, release, q) {
				continue
			}
			want := ledger{Misses: 2, MemoHits: 1, Searches: 1, SharedWaits: 1}
			if got := ledgerOf(p.Stats()); got != want {
				t.Errorf("deltas %+v, want %+v", got, want)
			}
			return
		}
		t.Fatal("no follower shared the leader's search in 20 attempts")
	})
}

func expectTemp(t *testing.T, got, want Temperature) {
	t.Helper()
	if got != want {
		t.Fatalf("Classify = %v, want %v", got, want)
	}
}

// TestTouchesIndependentOfAdmission: classifying a request before
// admitting it must not change what the plan cache counts. The same
// request sequence runs twice, once plain and once with a Classify ahead
// of every Optimize, on a cache small enough to evict.
func TestTouchesIndependentOfAdmission(t *testing.T) {
	t.Parallel()
	qs := make([]*model.Query, 200)
	for i := range qs {
		qs[i] = testQuery(t, gen.Default(6, 9100+int64(i)))
	}
	var order []int
	for round := 0; round < 3; round++ {
		for i := range qs {
			order = append(order, i)
		}
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 32; i++ {
			order = append(order, i)
		}
	}
	run := func(classify bool) Stats {
		p := New(Config{CacheCapacity: 64})
		for _, i := range order {
			if classify {
				p.Classify(qs[i])
			}
			if _, err := p.Optimize(context.Background(), qs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return p.Stats()
	}
	plain, admitted := run(false), run(true)
	if admitted.Touches != plain.Touches {
		t.Errorf("touches %d with Classify before each Optimize, %d without", admitted.Touches, plain.Touches)
	}
	if admitted.Hits != plain.Hits || admitted.Misses != plain.Misses || admitted.Evictions != plain.Evictions {
		t.Errorf("hits/misses/evictions %d/%d/%d with Classify, %d/%d/%d without",
			admitted.Hits, admitted.Misses, admitted.Evictions, plain.Hits, plain.Misses, plain.Evictions)
	}
}
