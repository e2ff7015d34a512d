package main

import (
	"path/filepath"
	"testing"

	"serviceordering/internal/model"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	q, err := model.NewQuery(
		[]model.Service{
			{Name: "a", Cost: 0.5, Selectivity: 0.8},
			{Name: "b", Cost: 0.3, Selectivity: 0.5},
		},
		[][]float64{{0, 0.1}, {0.1, 0}})
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := model.SaveInstance(path, &model.Instance{Query: q, Plan: model.Plan{1, 0}}); err != nil {
		t.Fatalf("SaveInstance: %v", err)
	}
	return path
}

func TestRunInProc(t *testing.T) {
	in := writeFixture(t)
	if err := run([]string{"-in", in, "-tuples", "64", "-block", "8", "-unit", "10us"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunHTTP(t *testing.T) {
	in := writeFixture(t)
	if err := run([]string{"-in", in, "-tuples", "48", "-block", "8", "-unit", "10us", "-transport", "http"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	in := writeFixture(t)
	if err := run([]string{}); err == nil {
		t.Errorf("missing -in accepted")
	}
	if err := run([]string{"-in", in, "-transport", "carrier-pigeon"}); err == nil {
		t.Errorf("unknown transport accepted")
	}
	if err := run([]string{"-in", in, "-tuples", "0"}); err == nil {
		t.Errorf("zero tuples accepted")
	}
}
