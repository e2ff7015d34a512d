package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// TestRestartScenario drives the restart scenario end to end with the
// quick spec: prime, snapshot into memory, warm-boot a second server from the
// bytes, and require a >= 90% first-window hit rate with every response
// oracle-verified (runRestartScenario fails internally on violations;
// the assertions here pin the metrics it reports).
func TestRestartScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real servers")
	}
	res, err := runRestartScenario(defaultRestartSpec(true), loadOpts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.snapshotBytes <= 0 {
		t.Fatalf("snapshot was empty (%d bytes)", res.snapshotBytes)
	}
	if res.firstWindowHitRate < 0.9 {
		t.Fatalf("first-window hit rate %v, want >= 0.9", res.firstWindowHitRate)
	}
	e := res.entry
	if e.Requests <= 0 || e.ReqPerSec <= 0 || e.Verified <= 0 {
		t.Fatalf("steady-state window made no verified progress: %+v", e)
	}
	if e.HitRate != res.firstWindowHitRate {
		t.Fatalf("summary hit rate %v does not record the first window's %v", e.HitRate, res.firstWindowHitRate)
	}
}

// Both scenarios control their servers' ground truth (the overload
// scenario installs its own adaptive registry and admission limits, the
// restart scenario needs the planner handle to snapshot) — an external -target must
// be refused, not silently self-hosted.
func TestOverloadScenarioRejectsExternalTarget(t *testing.T) {
	if _, err := runOverloadScenario(defaultOverloadSpec(true), loadOpts{seed: 1, target: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("external target accepted")
	}
}

func TestRestartScenarioRejectsExternalTarget(t *testing.T) {
	if _, err := runRestartScenario(defaultRestartSpec(true), loadOpts{seed: 1, target: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("external target accepted")
	}
}

// TestScenarioCLIFlags drives the real command line through run() for
// six of the seven scenarios (TestFleetCLIFlag runs the seventh),
// covering each dispatch and the scenario summaries main prints.
func TestScenarioCLIFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real load scenarios")
	}
	for _, name := range []string{"overload", "restart", "drift", "execute", "chaos", "failover"} {
		if err := run([]string{"-quick", name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// typedShedReason is the gate deciding whether a 429 body names one of
// the admission layer's documented reasons.
func TestTypedShedReason(t *testing.T) {
	for _, r := range []string{"queue-full", "cold-shed", "tenant-over-share", "wait-timeout"} {
		if !typedShedReason(r) {
			t.Errorf("documented reason %q rejected", r)
		}
	}
	for _, r := range []string{"", "overloaded", "QUEUE-FULL", "queue-full "} {
		if typedShedReason(r) {
			t.Errorf("untyped reason %q accepted", r)
		}
	}
}

func TestWriteCounterAccumulates(t *testing.T) {
	var w writeCounter
	for _, s := range []string{"SOP", "1", "rest"} {
		n, err := w.Write([]byte(s))
		if err != nil || n != len(s) {
			t.Fatalf("Write(%q) = %d, %v", s, n, err)
		}
	}
	if got := string(w.buf); !strings.HasPrefix(got, "SOP1") || got != "SOP1rest" {
		t.Fatalf("buffer = %q", got)
	}
}

// verifySolved is the oracle every scenario leans on — it must reject every
// kind of lie, not just wrong costs.
func TestVerifySolvedCatchesLies(t *testing.T) {
	corp, err := buildCorpus(2, 6, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.New(planner.Config{}).Optimize(context.Background(), corp.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	honest := solvedProbe{Plan: res.Plan, Cost: corp.expected[0], Optimal: true}
	if err := verifySolved(corp, 0, honest); err != nil {
		t.Fatalf("honest probe rejected: %v", err)
	}
	cases := map[string]solvedProbe{
		"not optimal":     {Plan: honest.Plan, Cost: honest.Cost, Optimal: false},
		"wrong cost":      {Plan: honest.Plan, Cost: honest.Cost * 1.5, Optimal: true},
		"infeasible plan": {Plan: append(append(model.Plan{}, honest.Plan...), 0), Cost: honest.Cost, Optimal: true},
	}
	for name, probe := range cases {
		if err := verifySolved(corp, 0, probe); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestQuantileMicrosEdges(t *testing.T) {
	if got := quantileMicros(nil, 0.5); got != 0 {
		t.Errorf("empty slice quantile = %v", got)
	}
	lats := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if got := quantileMicros(lats, 1); got != 4000 {
		t.Errorf("q1.0 = %v, want 4000", got)
	}
}

// TestProbeHelpers exercises the /v1 client plumbing the scenarios stand
// on: success and error envelopes, the drain path's non-200 handling, the
// stats and health scrapes, and disabled endpoints (which must surface
// their 404, not swallow it).
func TestProbeHelpers(t *testing.T) {
	target, err := startTarget(loadOpts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer target.close()
	corp, err := buildCorpus(1, 6, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c, u := target.client, target.url
	if _, err := postV1Optimize(c, u, corp.bodies[0]); err != nil {
		t.Fatalf("valid post failed: %v", err)
	}
	if _, err := postV1Optimize(c, u, []byte("{not json")); err == nil || !strings.Contains(err.Error(), "bad_request") {
		t.Errorf("malformed body: %v, want a bad_request error", err)
	}
	if err := drainV1Optimize(c, u, corp.bodies[0]); err != nil {
		t.Errorf("valid drain failed: %v", err)
	}
	if err := drainV1Optimize(c, u, []byte("{not json")); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Errorf("malformed drain: %v, want a status 400 error", err)
	}
	// Outside /v1 the mux answers plain text: the error still names the
	// path and status.
	if err := drainV1(c, u, "/optimize", corp.bodies[0]); err == nil || !strings.Contains(err.Error(), "/optimize: status 404") {
		t.Errorf("unversioned path: %v, want a plain 404", err)
	}

	st, err := getV1Stats(c, u)
	if err != nil || st.Misses == 0 {
		t.Errorf("getV1Stats = %+v, %v; want misses after a cold optimize", st.Stats, err)
	}
	if hz, err := getV1Healthz(c, u); err != nil || hz.Status != "ok" {
		t.Errorf("getV1Healthz = %+v, %v", hz, err)
	}

	// No -adaptive and no executor on this target: both endpoints 404.
	if err := postV1Observe(c, u, &adapt.Report{}); err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Errorf("observe against a non-adaptive server: %v, want not_found", err)
	}
	if _, err := postV1Execute(c, u, corp.bodies[0]); err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Errorf("execute without an executor: %v, want not_found", err)
	}
}
