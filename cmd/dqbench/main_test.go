package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"serviceordering/internal/exper"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSelectedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	if err := run([]string{"-quick", "-run", "T1"}); err != nil {
		t.Fatalf("run -quick -run T1: %v", err)
	}
	if err := run([]string{"-quick", "-run", "f5", "-markdown"}); err != nil {
		t.Fatalf("case-insensitive selection failed: %v", err)
	}
}

func TestRunNoMatch(t *testing.T) {
	if err := run([]string{"-run", "Z9"}); err == nil {
		t.Fatalf("unknown experiment id accepted")
	}
}

// TestSearchBenchJSONRoundTrip runs the quick search benchmark, writes the
// report, reloads it, and diffs a second run against it — the whole CI
// loop in miniature.
func TestSearchBenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("search bench skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-json", out}); err != nil {
		t.Fatalf("run -quick -json: %v", err)
	}
	rep, err := loadBenchReport(out)
	if err != nil {
		t.Fatalf("loadBenchReport: %v", err)
	}
	// Every exact family yields an exact cell plus an htier regret cell;
	// the large-n heuristic families add one htier cell per quick size.
	want := len(exper.SearchBenchFamilies)*2 +
		len(exper.HeuristicBenchFamilies)*len(exper.HeuristicBenchQuickSizes)
	if len(rep.Entries) != want {
		t.Fatalf("report holds %d entries, want %d", len(rep.Entries), want)
	}
	for _, e := range rep.Entries {
		if e.Mode == "htier" {
			if e.NsPerOp <= 0 || e.Source == "" {
				t.Fatalf("degenerate htier entry %+v", e)
			}
			continue
		}
		if e.NsPerOp <= 0 || e.Nodes <= 0 || !e.Optimal {
			t.Fatalf("degenerate entry %+v", e)
		}
	}
	// Second run comparing + embedding the first as baseline. -regress-ok
	// keeps the timing gate out of it: two back-to-back measurements in
	// one test process (doubly so under coverage instrumentation) are too
	// noisy to gate on, and the gate semantics are pinned separately by
	// TestCompareDetectsRegressions.
	out2 := filepath.Join(t.TempDir(), "bench2.json")
	if err := run([]string{"-quick", "-json", out2, "-compare", out, "-regress-ok"}); err != nil {
		t.Fatalf("run -compare: %v", err)
	}
	rep2, err := loadBenchReport(out2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Previous) != len(rep.Entries) || rep2.PreviousNote == "" {
		t.Fatalf("baseline not embedded: %d previous entries, note %q", len(rep2.Previous), rep2.PreviousNote)
	}
}

// TestCompareDetectsRegressions pins the -compare failure semantics on
// synthetic reports: cells past the time threshold, cells whose node count
// rose by even one, and cells whose cost moved either way produce one diff
// line each and make the run fail; improvements and in-tolerance timing
// noise do not, and zeroed thresholds (-regress-ok) silence everything.
func TestCompareDetectsRegressions(t *testing.T) {
	entry := func(family string, ns, nodes int64, cost float64) benchEntry {
		return benchEntry{Family: family, N: 12, Mode: "cold-seq", NsPerOp: ns, Nodes: nodes, Cost: cost}
	}
	old := &benchReport{Schema: searchBenchSchema, Entries: []benchEntry{
		entry("steady", 1000, 500, 1),
		entry("slower", 1000, 500, 1),
		entry("bushier", 1000, 500, 1),
		entry("onemore", 1000, 500, 1),
		entry("faster", 1000, 500, 1),
		entry("cheaper", 1000, 500, 1),
		entry("dearer", 1000, 500, 1),
	}}
	cur := &benchReport{Schema: searchBenchSchema, Entries: []benchEntry{
		entry("steady", 1040, 500, 1),         // timing noise, same nodes and cost
		entry("slower", 2000, 500, 1),         // time regression
		entry("bushier", 1000, 900, 1),        // node regression
		entry("onemore", 1000, 501, 1),        // one node more is a changed search
		entry("faster", 400, 100, 1),          // improvement
		entry("cheaper", 1000, 500, 0.999999), // cost moved down
		entry("dearer", 1000, 500, 1.000001),  // cost moved up
	}}
	thr := regressThresholds{time: 1.5, exact: true}
	regressions, err := compareBenchReports(old, cur, thr, io.Discard)
	if err != nil {
		t.Fatalf("compareBenchReports: %v", err)
	}
	if len(regressions) != 5 {
		t.Fatalf("got %d regressions, want 5: %v", len(regressions), regressions)
	}
	for _, want := range []string{"slower", "bushier", "onemore", "cheaper", "dearer"} {
		found := false
		for _, r := range regressions {
			if strings.Contains(r, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no regression line for %q in %v", want, regressions)
		}
	}

	if silent, err := compareBenchReports(old, cur, regressThresholds{}, io.Discard); err != nil || len(silent) != 0 {
		t.Fatalf("zeroed thresholds still flagged %v (err %v)", silent, err)
	}

	// End to end: a -compare run against a deliberately faster baseline
	// (unbeatable 1 ns / 1 node on every real quick-suite cell) must exit
	// non-zero.
	fast := &benchReport{Schema: searchBenchSchema}
	for _, family := range exper.SearchBenchFamilies {
		fast.Entries = append(fast.Entries, benchEntry{
			Family: family, N: 12, Mode: exactMode, NsPerOp: 1, Nodes: 1,
		})
	}
	fastPath := filepath.Join(t.TempDir(), "fast.json")
	if err := writeBenchReport(fast, fastPath); err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("bench execution skipped in -short mode")
	}
	err = run([]string{"-quick", "-compare", fastPath})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("run -compare against unbeatable baseline: err = %v, want regression failure", err)
	}
	if err := run([]string{"-quick", "-compare", fastPath, "-regress-ok"}); err != nil {
		t.Fatalf("-regress-ok still failed: %v", err)
	}
}
