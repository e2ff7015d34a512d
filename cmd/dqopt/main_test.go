package main

import (
	"path/filepath"
	"testing"

	"serviceordering/internal/model"
)

// writeFixture stores the hand-checked 3-service instance (optimum
// [a b c], cost 2.5) and returns its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	q, err := model.NewQuery(
		[]model.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
			{Name: "c", Cost: 4, Selectivity: 0.25},
		},
		[][]float64{
			{0, 1, 2},
			{3, 0, 1},
			{2, 5, 0},
		})
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fixture.json")
	if err := model.SaveInstance(path, &model.Instance{Query: q}); err != nil {
		t.Fatalf("SaveInstance: %v", err)
	}
	return path
}

func TestRunBnbWritesPlan(t *testing.T) {
	in := writeFixture(t)
	out := filepath.Join(t.TempDir(), "solved.json")
	if err := run([]string{"-in", in, "-o", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	inst, err := model.LoadInstance(out)
	if err != nil {
		t.Fatalf("LoadInstance: %v", err)
	}
	if !inst.Plan.Equal(model.Plan{0, 1, 2}) {
		t.Errorf("plan = %v, want [0 1 2]", inst.Plan)
	}
	if inst.Cost != 2.5 {
		t.Errorf("cost = %v, want 2.5", inst.Cost)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	in := writeFixture(t)
	algos := append([]string{"bnb"}, baselineNames()...)
	for _, algo := range algos {
		if err := run([]string{"-in", in, "-algo", algo, "-q"}); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunSeedGreedyAndBudgets(t *testing.T) {
	in := writeFixture(t)
	if err := run([]string{"-in", in, "-seed-greedy", "-timeout", "1s", "-node-limit", "100000"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunExplainAndTrace(t *testing.T) {
	in := writeFixture(t)
	if err := run([]string{"-in", in, "-explain", "-trace", "50"}); err != nil {
		t.Fatalf("run -explain -trace: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	in := writeFixture(t)
	tests := [][]string{
		{},                               // missing -in
		{"-in", "does-not-exist.json"},   // missing file
		{"-in", in, "-algo", "quantum"},  // unknown algorithm
		{"-in", in, "-node-limit", "-5"}, // invalid budget
		{"-in", in, "-parallel", "3"},    // retired: the search is sequential
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) = nil error", args)
		}
	}
}
