package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/serve"
)

// Overload-survival features at the process level: admission flags,
// snapshot dump/restore across a real SIGTERM restart, and client
// disconnects leaving the server healthy.

func seededBody(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	q, err := gen.Default(n, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&model.Instance{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postInstance(t *testing.T, url string, body []byte) serve.OptimizeResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got serve.OptimizeResponse
	decodeV1(t, resp, &got)
	return got
}

// TestAdmissionFlagsEndToEnd: the admission flags reach the handler — the
// server answers normally under light load and /v1/stats carries the
// overload block with admission counters.
func TestAdmissionFlagsEndToEnd(t *testing.T) {
	url, stop := startServer(t, "-admit-max-concurrent", "2", "-stale-serve", "-adaptive")
	defer stop()

	got := postInstance(t, url, seededBody(t, 8, 900))
	if len(got.Plan) != 8 {
		t.Fatalf("plan length %d, want 8", len(got.Plan))
	}
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	decodeV1(t, resp, &st)
	if st.Overload == nil {
		t.Fatal("/v1/stats missing overload block with admission enabled")
	}
	if st.Overload.Admission.Admitted < 1 {
		t.Fatalf("admitted = %d, want >= 1", st.Overload.Admission.Admitted)
	}
}

// TestStaleServeRequiresAdmission: the flag combination that cannot work
// is refused at startup, not silently ignored.
func TestStaleServeRequiresAdmission(t *testing.T) {
	if err := run([]string{"-stale-serve"}, nil); err == nil {
		t.Fatal("-stale-serve without admission was accepted")
	}
}

// TestSnapshotRestartWarmBoot is the restart cell's mechanism end to end:
// a server plans a working set, a SIGTERM dumps the cache, and a fresh
// process restores it and serves the whole set from cache.
func TestSnapshotRestartWarmBoot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.snap")
	const queries = 8

	url, stop := startServer(t, "-snapshot-path", snap)
	costs := make(map[int64]float64, queries)
	for i := int64(0); i < queries; i++ {
		got := postInstance(t, url, seededBody(t, 8, 7000+i))
		if got.Cached {
			t.Fatalf("query %d cached on a cold server", i)
		}
		costs[i] = got.Cost
	}
	stop() // SIGTERM → graceful drain → final snapshot dump

	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}

	url2, stop2 := startServer(t, "-snapshot-path", snap)
	defer stop2()
	for i := int64(0); i < queries; i++ {
		got := postInstance(t, url2, seededBody(t, 8, 7000+i))
		if !got.Cached {
			t.Fatalf("query %d missed after warm boot", i)
		}
		if got.Stale {
			t.Fatalf("query %d served stale after a same-world restore", i)
		}
		if got.Cost != costs[i] {
			t.Fatalf("query %d cost %v after restore, want %v", i, got.Cost, costs[i])
		}
	}
}

// TestCorruptSnapshotBootsCold: a damaged snapshot must not take the node
// down — it logs and starts cold.
func TestCorruptSnapshotBootsCold(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "plans.snap")
	if err := os.WriteFile(snap, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, stop := startServer(t, "-snapshot-path", snap)
	defer stop()
	if got := postInstance(t, url, seededBody(t, 6, 31)); got.Cached {
		t.Fatal("cold boot from corrupt snapshot reported a cache hit")
	}
}

// TestClientDisconnectLeavesServerHealthy: a client that gives up on an
// optimize must not wedge the server — the next request on a fresh
// connection is served normally. (The serve-layer test pins that the
// disconnect aborts the search mid-run; this is the process-level
// liveness check.)
func TestClientDisconnectLeavesServerHealthy(t *testing.T) {
	url, stop := startServer(t)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/optimize",
		bytes.NewReader(seededBody(t, 12, 5150)))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close() // the search beat the 1ms deadline; fine either way
	}

	got := postInstance(t, url, seededBody(t, 8, 5151))
	if len(got.Plan) != 8 {
		t.Fatalf("post-disconnect request: plan length %d, want 8", len(got.Plan))
	}
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect: %d, want 200", resp.StatusCode)
	}
}
