package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"serviceordering/internal/serve"
)

// TestExecuteFlagEndToEnd drives the real server with -exec-backend mock
// -adaptive: POST /v1/execute must optimize, run the plan, and feed the
// execution report into the drift detector, all in one round trip.
func TestExecuteFlagEndToEnd(t *testing.T) {
	url, stop := startServer(t, "-exec-backend", "mock", "-adaptive")
	defer stop()

	var inst map[string]json.RawMessage
	if err := json.Unmarshal(fixtureBody(t), &inst); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"query": inst["query"], "tuples": 300})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got serve.ExecuteResponse
	decodeV1(t, resp, &got)
	if len(got.Plan) != 2 || got.TuplesIn != 300 || got.Degraded != nil {
		t.Fatalf("unexpected execute response: %+v", got)
	}
	if !got.Observed {
		t.Fatal("-adaptive server did not observe the execution")
	}

	// The executor block shows up in /v1/stats.
	sresp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats serve.StatsResponse
	decodeV1(t, sresp, &stats)
	if stats.Exec == nil || stats.Exec.Executions != 1 {
		t.Fatalf("stats exec = %+v, want 1 execution", stats.Exec)
	}
}

// TestExecuteDisabledWithoutFlag: no -exec-backend, no route.
func TestExecuteDisabledWithoutFlag(t *testing.T) {
	url, stop := startServer(t)
	defer stop()
	resp, err := http.Post(url+"/v1/execute", "application/json", bytes.NewReader([]byte(`{"tuples":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 without -exec-backend", resp.StatusCode)
	}
}

// TestHealthzReportsCorruptSnapshot: a damaged snapshot still boots the
// node cold, and /v1/healthz says so.
func TestHealthzReportsCorruptSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.snap")
	if err := os.WriteFile(snap, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, stop := startServer(t, "-snapshot-path", snap)
	defer stop()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var health serve.HealthzResponse
	decodeV1(t, resp, &health)
	if health.Status != "degraded" || len(health.Reasons) != 1 || health.Reasons[0] != "snapshot-restore-failed" {
		t.Fatalf("healthz = %+v, want degraded/snapshot-restore-failed", health)
	}
}
