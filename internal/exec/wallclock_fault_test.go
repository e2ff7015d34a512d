package exec_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/model"
)

// runFaulted runs plan with faults injected at the service with index
// svc (the run names services by index, so the fault plan keys it that
// way) on both transports. It requires each run to end, within a bound
// that catches a deadlock, with the injected failure named at wantStage.
func runFaulted(t *testing.T, q *model.Query, plan model.Plan, svc, wantStage string) {
	t.Helper()
	inject := func(b exec.Backend) exec.Backend {
		return faultinject.Wrap(b, faultinject.Plan{Seed: 1, Services: map[string]faultinject.Faults{
			svc: {BlackoutFrom: 5, BlackoutLen: 1},
		}})
	}
	for _, overHTTP := range []bool{false, true} {
		cfg := exec.WallClockConfig{Tuples: 200, BlockSize: 8, QueueBlocks: 4, HTTP: overHTTP}
		done := make(chan error, 1)
		go func() {
			_, err := exec.RunWallClockWrapped(context.Background(), q, plan, cfg, inject)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), wantStage) || !strings.Contains(err.Error(), "injected failure") {
				t.Errorf("http=%v: err = %v, want the injected failure at %s", overHTTP, err, wantStage)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("http=%v: run deadlocked after an injected failure", overHTTP)
		}
	}
}

func mustQuery(t *testing.T, services []model.Service, transfer [][]float64) *model.Query {
	t.Helper()
	q, err := model.NewQuery(services, transfer)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	return q
}

// A faultinject failure at one stage ends the run with an error naming
// that stage by its position in the caller's plan, not by service index.
func TestRunWallClockFaultNamesStage(t *testing.T) {
	t.Parallel()
	q := mustQuery(t,
		[]model.Service{
			{Name: "a", Cost: 1, Selectivity: 1},
			{Name: "b", Cost: 0.5, Selectivity: 1},
			{Name: "c", Cost: 0.25, Selectivity: 1},
		},
		[][]float64{{0, 0.5, 1}, {0.5, 0, 0.25}, {1, 0.25, 0}})
	runFaulted(t, q, model.Plan{1, 0, 2}, "0", `stage 1 (service 0 "a")`)
}

// The same holds at a threaded service behind a source stage.
func TestRunWallClockThreadedFaultNamesStage(t *testing.T) {
	t.Parallel()
	q := mustQuery(t,
		[]model.Service{
			{Name: "light", Cost: 0.1, Selectivity: 1},
			{Name: "heavy", Cost: 2, Selectivity: 1, Threads: 3},
			{Name: "tail", Cost: 0.1, Selectivity: 1},
		},
		[][]float64{{0, 0.05, 0.05}, {0.05, 0, 0.05}, {0.05, 0.05, 0}})
	q.SourceTransfer = []float64{0.1, 0.1, 0.1}
	runFaulted(t, q, model.Plan{2, 0, 1}, "1", `stage 2 (service 1 "heavy")`)
}
