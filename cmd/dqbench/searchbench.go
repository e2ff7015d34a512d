package main

// The search benchmark baseline: a reproducible suite of hard exact-search
// instances (per family and size), each measured with the exact search and
// the heuristic portfolio, and emitted as BENCH_search.json so every PR
// has a perf trajectory to beat. The committed file at the repository root is the current baseline;
// CI regenerates a fresh report on every push and prints a benchstat-style
// comparison against it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"serviceordering/internal/core"
	"serviceordering/internal/exper"
	"serviceordering/internal/htier"
	"serviceordering/internal/model"
	"serviceordering/internal/stats"
)

// searchBenchSchema names the report format; bump on breaking changes.
const searchBenchSchema = "serviceordering/search-bench/v1"

// benchEntry is one (instance, mode) measurement.
type benchEntry struct {
	Family  string  `json:"family"`
	N       int     `json:"n"`
	Seed    int64   `json:"seed"`
	Mode    string  `json:"mode"` // exactMode | htier
	Ops     int     `json:"ops"`
	NsPerOp int64   `json:"nsPerOp"`
	Nodes   int64   `json:"nodes"`
	Cost    float64 `json:"cost"`
	Optimal bool    `json:"optimal"`

	// Regret is cost/optimum - 1 for htier cells whose instance the exact
	// core also solves (n <= 14); omitted where no optimum is known.
	Regret float64 `json:"regret,omitempty"`

	// Source names the winning portfolio member on htier cells.
	Source string `json:"source,omitempty"`
}

// key aligns entries across reports.
func (e benchEntry) key() string { return fmt.Sprintf("%s/n=%d/%s", e.Family, e.N, e.Mode) }

// benchReport is the BENCH_search.json document.
type benchReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generatedAt"`
	GoVersion   string `json:"goVersion"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Quick       bool   `json:"quick"`

	Entries []benchEntry `json:"entries"`

	// Previous carries the entries of the report this run was compared
	// against (-compare), so a committed baseline records both sides of
	// its before/after story.
	Previous     []benchEntry `json:"previous,omitempty"`
	PreviousNote string       `json:"previousNote,omitempty"`
}

// maxHeuristicRegret gates the htier cells measured on instances with a
// known optimum: the portfolio (greedy + beam + bounded local search)
// must land within 5% of the exact cost on every pinned instance. The
// measured configuration is pinned by regretBeamWidth and local search at
// every size — at the production default width of 8, the proliferative
// family (selectivity > 1 breaks the beam score's flow-shrinks
// assumption) lands in local optima 25-48% off the optimum.
// The htier package's own differential suite separately pins per-member
// bounds on its own seeds.
const maxHeuristicRegret = 0.05

// regretBeamWidth is the beam width of the regret cells. 32 brings every
// pinned instance, proliferative included, within 0.1% of the exact cost
// (measured: worst 0.0005); widths are not monotone in quality (64
// regresses proliferative/n=12 by changing which local optimum the
// refinement starts from), so this is a pinned constant, not a "bigger is
// better" dial.
const regretBeamWidth = 32

// exactMode names the exact-search cells. The search always starts cold
// (rho = +Inf) and is sequential; the name keeps its "cold-seq" form so
// -compare still aligns with baseline rows recorded while warm-start and
// parallel modes existed.
const exactMode = "cold-seq"

// runSearchBench measures the whole suite. Quick mode restricts to n=12
// and shorter measurement windows (CI-sized); the full suite is the one to
// commit as the baseline.
func runSearchBench(quick bool, log io.Writer) (*benchReport, error) {
	sizes := []int{12, 13, 14}
	minOps, minDur := 3, 300*time.Millisecond
	if quick {
		sizes = []int{12}
		minOps, minDur = 2, 50*time.Millisecond
	}

	rep := &benchReport{
		Schema:      searchBenchSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
	}

	for _, family := range exper.SearchBenchFamilies {
		for _, n := range sizes {
			q, seed, err := exper.SearchBenchInstance(family, n)
			if err != nil {
				return nil, fmt.Errorf("%s/n=%d: %w", family, n, err)
			}
			entry, err := measureSearch(q, minOps, minDur)
			if err != nil {
				return nil, fmt.Errorf("%s/n=%d/%s: %w", family, n, exactMode, err)
			}
			entry.Family, entry.N, entry.Seed = family, n, seed
			wantCost := entry.Cost
			rep.Entries = append(rep.Entries, entry)
			fmt.Fprintf(log, "search-bench %-13s n=%d %-8s %12d ns/op %9d nodes\n",
				family, n, exactMode, entry.NsPerOp, entry.Nodes)
			// Heuristic regret cell: same instance, the portfolio gated
			// against the exact optimum just proven.
			hent, err := measureHeuristic(q, htier.Options{BeamWidth: regretBeamWidth}, minOps, minDur)
			if err != nil {
				return nil, fmt.Errorf("%s/n=%d/htier: %w", family, n, err)
			}
			hent.Family, hent.N, hent.Seed = family, n, seed
			hent.Regret = hent.Cost/wantCost - 1
			if hent.Regret < -1e-9 {
				return nil, fmt.Errorf("%s/n=%d/htier: heuristic cost %v undercuts the proven optimum %v",
					family, n, hent.Cost, wantCost)
			}
			if hent.Regret < 1e-9 {
				hent.Regret = 0 // epsilon-vs-cost arithmetic noise, not signal
			}
			if hent.Regret > maxHeuristicRegret {
				return nil, fmt.Errorf("%s/n=%d/htier: regret %.4f exceeds the %.0f%% gate (cost %v vs optimum %v)",
					family, n, hent.Regret, 100*maxHeuristicRegret, hent.Cost, wantCost)
			}
			rep.Entries = append(rep.Entries, hent)
			fmt.Fprintf(log, "search-bench %-13s n=%d %-8s %12d ns/op   regret %.4f (%s)\n",
				family, n, hent.Mode, hent.NsPerOp, hent.Regret, hent.Source)
		}
	}

	// Large-n heuristic cells: sizes the exact core cannot finish (or
	// cannot admit at all), measured with the portfolio's production
	// defaults. Cross-heuristic dominance is asserted per run inside
	// measureHeuristic; wall time is gated by -compare like every cell.
	hsizes := exper.HeuristicBenchSizes
	if quick {
		hsizes = exper.HeuristicBenchQuickSizes
	}
	for _, family := range exper.HeuristicBenchFamilies {
		for _, n := range hsizes {
			q, seed, err := exper.HeuristicBenchInstance(family, n)
			if err != nil {
				return nil, fmt.Errorf("%s/n=%d: %w", family, n, err)
			}
			entry, err := measureHeuristic(q, htier.Options{}, minOps, minDur)
			if err != nil {
				return nil, fmt.Errorf("%s/n=%d/htier: %w", family, n, err)
			}
			entry.Family, entry.N, entry.Seed = family, n, seed
			rep.Entries = append(rep.Entries, entry)
			fmt.Fprintf(log, "search-bench %-13s n=%d %-8s %12d ns/op (%s)\n",
				family, n, entry.Mode, entry.NsPerOp, entry.Source)
		}
	}
	return rep, nil
}

// measureHeuristic times one htier cell, verifying per run that the
// portfolio result dominates every member (the reported cost is the exact
// minimum over the members' plans) and that repeated runs agree — the
// heuristics are deterministic, so any divergence is a bug, not noise.
func measureHeuristic(q *model.Query, opts htier.Options, minOps int, minDur time.Duration) (benchEntry, error) {
	run := func() (htier.Result, error) {
		res, err := htier.Plan(q, opts)
		if err != nil {
			return res, err
		}
		if len(res.Members) == 0 {
			return res, fmt.Errorf("portfolio ran no members")
		}
		best := res.Members[0].Cost
		for _, m := range res.Members {
			if m.Cost < best {
				best = m.Cost
			}
			if m.Cost < res.Cost {
				return res, fmt.Errorf("member %s cost %v undercuts portfolio cost %v (dominance broken)",
					m.Name, m.Cost, res.Cost)
			}
		}
		if best != res.Cost {
			return res, fmt.Errorf("portfolio cost %v is not the member minimum %v", res.Cost, best)
		}
		return res, nil
	}
	res, err := run() // warmup, outside the timing window
	if err != nil {
		return benchEntry{}, err
	}
	var (
		ops     int
		elapsed time.Duration
	)
	for ops < minOps || elapsed < minDur {
		start := time.Now()
		again, err := run()
		elapsed += time.Since(start)
		if err != nil {
			return benchEntry{}, err
		}
		if again.Cost != res.Cost || again.Source != res.Source {
			return benchEntry{}, fmt.Errorf("heuristic run diverged: cost %v/%s then %v/%s",
				res.Cost, res.Source, again.Cost, again.Source)
		}
		ops++
	}
	return benchEntry{
		Mode:    "htier",
		Ops:     ops,
		NsPerOp: elapsed.Nanoseconds() / int64(ops),
		Cost:    res.Cost,
		Source:  res.Source,
	}, nil
}

// measureSearch times one exact-search cell: at least minOps runs and at
// least minDur of accumulated wall clock, reporting the mean.
func measureSearch(q *model.Query, minOps int, minDur time.Duration) (benchEntry, error) {
	// One warmup run outside the timing window.
	res, err := core.Optimize(q)
	if err != nil {
		return benchEntry{}, err
	}
	var (
		ops     int
		elapsed time.Duration
	)
	for ops < minOps || elapsed < minDur {
		start := time.Now()
		res, err = core.Optimize(q)
		elapsed += time.Since(start)
		if err != nil {
			return benchEntry{}, err
		}
		ops++
	}
	return benchEntry{
		Mode:    exactMode,
		Ops:     ops,
		NsPerOp: elapsed.Nanoseconds() / int64(ops),
		Nodes:   res.Stats.NodesExpanded,
		Cost:    res.Cost,
		Optimal: res.Optimal,
	}, nil
}

// loadBenchReport reads a previous BENCH_search.json.
func loadBenchReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Schema != searchBenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, searchBenchSchema)
	}
	return &rep, nil
}

// writeBenchReport writes the report with stable formatting.
func writeBenchReport(rep *benchReport, path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// regressThresholds define when a compared cell counts as a regression.
// Time is wall clock on shared CI runners: a cell regresses when its new
// ns/op exceeds old * time, a generous multiplier. With exact set, a cell
// whose node count rose at all, or whose cost differs from the baseline's
// at all, in either direction, regresses: every cell's instance and
// search are deterministic, so more nodes are a changed search and a
// moved cost is a changed answer, not noise.
type regressThresholds struct {
	time  float64
	exact bool
}

// compareBenchReports prints a benchstat-style old-vs-new table for the
// cells present in both reports and returns one line per cell regressing
// beyond thr.
func compareBenchReports(old, cur *benchReport, thr regressThresholds, w io.Writer) ([]string, error) {
	oldByKey := make(map[string]benchEntry, len(old.Entries))
	for _, e := range old.Entries {
		oldByKey[e.key()] = e
	}
	tbl := stats.NewTable("search bench vs baseline",
		"case", "old ns/op", "new ns/op", "Δtime", "old nodes", "new nodes", "Δnodes")
	matched := 0
	var regressions []string
	for _, e := range cur.Entries {
		o, ok := oldByKey[e.key()]
		if !ok {
			continue
		}
		matched++
		tbl.MustAddRow(e.key(),
			fmt.Sprintf("%d", o.NsPerOp), fmt.Sprintf("%d", e.NsPerOp), delta(o.NsPerOp, e.NsPerOp),
			fmt.Sprintf("%d", o.Nodes), fmt.Sprintf("%d", e.Nodes), delta(o.Nodes, e.Nodes))
		if thr.time > 0 && float64(e.NsPerOp) > float64(o.NsPerOp)*thr.time {
			regressions = append(regressions, fmt.Sprintf("%s: time %d -> %d ns/op (%s, threshold %+.0f%%)",
				e.key(), o.NsPerOp, e.NsPerOp, delta(o.NsPerOp, e.NsPerOp), 100*(thr.time-1)))
		}
		if thr.exact && e.Nodes > o.Nodes {
			regressions = append(regressions, fmt.Sprintf("%s: nodes %d -> %d (%s, must not rise)",
				e.key(), o.Nodes, e.Nodes, delta(o.Nodes, e.Nodes)))
		}
		if thr.exact && e.Cost != o.Cost {
			regressions = append(regressions, fmt.Sprintf("%s: cost %v -> %v (must not change)", e.key(), o.Cost, e.Cost))
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "search bench: no overlapping cases with baseline (size mismatch? run without -quick)")
		return nil, nil
	}
	return regressions, tbl.Render(w)
}

// delta renders a signed percentage change (negative = faster/fewer).
func delta(old, cur int64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(cur)-float64(old))/float64(old))
}
