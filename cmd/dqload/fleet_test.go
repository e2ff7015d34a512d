package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/fleet"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

// TestFleetRemoteNeedsTwoTargets: driving an external fleet requires at
// least two peers; a single -target URL is the plain load path, not a
// fleet, and must be refused with a message that says so.
func TestFleetRemoteNeedsTwoTargets(t *testing.T) {
	t.Parallel()
	_, err := runFleetScenario(defaultFleetSpec(true), loadOpts{seed: 1, target: "http://one"})
	if err == nil {
		t.Fatal("single-target fleet run accepted")
	}
	if !strings.Contains(err.Error(), "comma-separated") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

// TestCrossNodeHits: the hit-rate numerator counts exactly the two
// cross-node paths — replica hits and warm forward serves — and nothing
// the peer solved for itself.
func TestCrossNodeHits(t *testing.T) {
	t.Parallel()
	s := fleet.Stats{
		OwnedLocal:        100,
		ReplicaHits:       40,
		Forwarded:         9,
		ForwardServed:     12,
		ForwardServedWarm: 7,
	}
	if got := crossNodeHits(s); got != 47 {
		t.Fatalf("crossNodeHits = %d, want 47 (40 replica + 7 forwarded-warm)", got)
	}
}

// TestFleetRemoteEndToEnd drives runFleetRemote against a real
// self-hosted 3-peer fleet, exactly as an operator would with
// -target url1,url2,url3 fleet: warm through the first target, then one
// primed window per peer with cross-node hits scraped from /v1/stats.
// Target URLs arrive with stray whitespace and a trailing slash to pin
// the trimming. Remote mode has no aggregate gate (it cannot start its
// own single-node reference), so this test cannot flake on box speed.
func TestFleetRemoteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real fleet")
	}
	nodes, stop, err := startFleetNodes(3, 2, adapt.Config{})
	if err != nil {
		t.Fatalf("startFleetNodes: %v", err)
	}
	defer stop()

	spec := defaultFleetSpec(true)
	spec.corpus = 6
	spec.n = 6
	spec.conc = 2
	spec.window = 60 * time.Millisecond
	opts := loadOpts{
		seed:   7,
		target: " " + nodes[0].url + "/ ," + nodes[1].url + "," + nodes[2].url,
	}
	res, err := runFleetScenario(spec, opts)
	if err != nil {
		t.Fatalf("remote fleet run: %v", err)
	}
	if len(res.perPeerRps) != 3 {
		t.Fatalf("per-peer rps entries = %d, want 3", len(res.perPeerRps))
	}
	if res.entry.Requests == 0 || res.entry.Verified == 0 {
		t.Fatalf("window drove %d requests (%d verified), want both > 0", res.entry.Requests, res.entry.Verified)
	}
	if res.hitRate < 0 || res.hitRate > 1 || res.entry.HitRate != res.hitRate {
		t.Fatalf("cross-node hit rate %v (entry %v) out of range", res.hitRate, res.entry.HitRate)
	}
	if res.aggregate <= 0 || res.entry.ReqPerSec != res.aggregate {
		t.Fatalf("aggregate %v (entry %v) inconsistent", res.aggregate, res.entry.ReqPerSec)
	}
	if res.driftEntry.Requests != 0 {
		t.Fatalf("remote run drove %d drift requests; remote fleets' ground truth is not ours to perturb", res.driftEntry.Requests)
	}
}

// A fleet-less server answers /v1/stats without a fleet block; the remote
// scraper must say so instead of returning zero counters.
func TestScrapeV1FleetNoFleetBlock(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(serve.NewHandler(planner.New(planner.Config{}), serve.Options{MaxBody: 1 << 20}))
	defer srv.Close()
	_, err := scrapeV1Fleet(srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "no fleet block") {
		t.Fatalf("scrape of a fleet-less server: %v", err)
	}
}

// TestFleetCLIFlag drives the fleet scenario through run(), mirroring
// TestScenarioCLIFlags for the other six: the full quick self-hosted
// scenario, reference window, gates, and summary printing included.
func TestFleetCLIFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real fleet scenario")
	}
	if err := run([]string{"-quick", "fleet"}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
}
