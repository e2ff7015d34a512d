package exper

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment in quick mode end-to-end:
// each must produce a non-empty table without error. This is the CI guard
// that every experiment of All() stays reproducible.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.NumRows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			var b strings.Builder
			if err := table.Render(&b); err != nil {
				t.Fatalf("%s render: %v", e.ID, err)
			}
			if !strings.Contains(b.String(), e.ID) {
				t.Errorf("%s: table title does not mention the experiment id:\n%s", e.ID, b.String())
			}
		})
	}
}

// TestT1QuickMatchesAlways parses T1's guarantee directly: in quick mode
// every instance must match the exhaustive optimum.
func TestT1QuickMatchesAlways(t *testing.T) {
	table, err := RunT1Optimality(Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatalf("RunT1Optimality: %v", err)
	}
	var b strings.Builder
	if err := table.Render(&b); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		// Data rows start with the integer N.
		if fields[0] < "0" || fields[0] > "9" {
			continue
		}
		if fields[1] != fields[2] {
			t.Errorf("T1 row has matches != instances: %q", line)
		}
	}
}

// TestRunAllRenders exercises the aggregate driver with a tiny subset by
// rendering both output flavors.
func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	var plain, md strings.Builder
	cfg := Config{Quick: true, Seed: 3}
	if err := RunAll(&plain, cfg, false); err != nil {
		t.Fatalf("RunAll(plain): %v", err)
	}
	if err := RunAll(&md, cfg, true); err != nil {
		t.Fatalf("RunAll(markdown): %v", err)
	}
	if !strings.Contains(plain.String(), "T1") || !strings.Contains(md.String(), "| --- |") {
		t.Errorf("outputs malformed")
	}
}

func TestFactorial(t *testing.T) {
	cases := map[int]float64{0: 1, 1: 1, 5: 120, 10: 3628800}
	for n, want := range cases {
		if got := factorial(n); got != want {
			t.Errorf("factorial(%d) = %v, want %v", n, got, want)
		}
	}
}

// The pinned-instance constructors are dqbench's instance source; pin
// that every documented family resolves and unknown ones are refused.
func TestBenchInstanceConstructors(t *testing.T) {
	if cfg := DefaultConfig(); cfg.Seed != 1 {
		t.Fatalf("DefaultConfig seed = %d", cfg.Seed)
	}
	for _, family := range []string{"plain", "sink-source", "precedence", "proliferative", "threaded"} {
		q, seed, err := SearchBenchInstance(family, 12)
		if err != nil || q == nil || seed == 0 {
			t.Errorf("SearchBenchInstance(%s, 12) = %v, %d, %v", family, q, seed, err)
		}
	}
	for _, family := range []string{"large-precedence", "large-zipf"} {
		q, seed, err := HeuristicBenchInstance(family, 32)
		if err != nil || q == nil || seed == 0 {
			t.Errorf("HeuristicBenchInstance(%s, 32) = %v, %d, %v", family, q, seed, err)
		}
	}
	if _, _, err := SearchBenchInstance("nope", 12); err == nil {
		t.Error("unknown search family accepted")
	}
	if _, _, err := SearchBenchInstance("plain", 99); err == nil {
		t.Error("unpinned size accepted")
	}
	if _, _, err := HeuristicBenchInstance("nope", 32); err == nil {
		t.Error("unknown heuristic family accepted")
	}
	if _, _, err := HeuristicBenchInstance("large-zipf", 99); err == nil {
		t.Error("unpinned heuristic size accepted")
	}
}
