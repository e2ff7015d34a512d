package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"serviceordering/internal/adapt"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// testPeer is one in-process fleet member: real planner, real registry,
// real TCP frame server on an ephemeral loopback port.
type testPeer struct {
	peer     *Peer
	planner  *planner.Planner
	registry *adapt.Registry
	addr     string
}

// startFleet brings up an n-peer fleet on loopback. The local handler on
// every peer decodes the body as a query document and serves it from the
// peer's own planner — the fleet-layer stand-in for the serve layer's
// forwarded-request path.
func startFleet(t *testing.T, n, replication int) []*testPeer {
	t.Helper()
	servers := make([]*PeerServer, n)
	addrs := make([]string, n)
	for i := range servers {
		ps, err := ListenPeer("127.0.0.1:0", "testfleet")
		if err != nil {
			t.Fatalf("listen peer %d: %v", i, err)
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}
	peers := make([]*testPeer, n)
	for i := range peers {
		reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
		pl := planner.New(planner.Config{Adaptive: reg})
		fp, err := New(Options{
			FleetID:     "testfleet",
			Self:        addrs[i],
			Peers:       addrs,
			Replication: replication,
			Planner:     pl,
			Registry:    reg,
			Server:      servers[i],
		})
		if err != nil {
			t.Fatalf("fleet peer %d: %v", i, err)
		}
		fp.SetLocalHandler(localHandlerFor(pl))
		fp.Run()
		peers[i] = &testPeer{peer: fp, planner: pl, registry: reg, addr: addrs[i]}
	}
	t.Cleanup(func() {
		for _, tp := range peers {
			tp.peer.Close()
		}
	})
	return peers
}

func localHandlerFor(pl *planner.Planner) LocalHandler {
	return func(path string, body []byte) (int, int64, bool, []byte) {
		var q model.Query
		if err := json.Unmarshal(body, &q); err != nil {
			return 400, 0, false, []byte(err.Error())
		}
		if err := q.Validate(); err != nil {
			return 400, 0, false, []byte(err.Error())
		}
		res, err := pl.Optimize(context.Background(), &q)
		if err != nil {
			return 500, 0, false, []byte(err.Error())
		}
		return 200, 0, res.Cached && !res.Stale, []byte(res.Signature.String())
	}
}

// fleetQuery generates a named, validated query.
func fleetQuery(t *testing.T, n int, seed int64) *model.Query {
	t.Helper()
	q, err := gen.Default(n, seed).Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := range q.Services {
		q.Services[i].Name = "svc-" + string(rune('a'+i))
	}
	return q
}

// byAddr maps a fleet address back to its testPeer.
func byAddr(t *testing.T, peers []*testPeer, addr string) *testPeer {
	t.Helper()
	for _, tp := range peers {
		if tp.addr == addr {
			return tp
		}
	}
	t.Fatalf("no peer at %s", addr)
	return nil
}

// TestFleetThreePeers is the in-process integration test: ownership
// routing, wrong-owner forwarding, owner→replica warm replication serving
// a cross-node hit, and stale-generation rejection after a remote anchor
// bump.
func TestFleetThreePeers(t *testing.T) {
	peers := startFleet(t, 3, 2)
	q := fleetQuery(t, 6, 77)
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}

	sig, ok := peers[0].planner.SignatureFor(q)
	if !ok {
		t.Fatal("SignatureFor refused")
	}
	// Every peer must agree on the owner.
	ownerAddr := peers[0].peer.Owner(sig)
	for _, tp := range peers {
		if got := tp.peer.Owner(sig); got != ownerAddr {
			t.Fatalf("peer %s thinks owner is %s, peer 0 says %s", tp.addr, got, ownerAddr)
		}
	}
	owner := byAddr(t, peers, ownerAddr)

	// A non-owner, non-replica-resident peer must forward; the owner must
	// serve the forwarded request (cold, then warm on a repeat).
	var outsider *testPeer
	for _, tp := range peers {
		if tp.addr != ownerAddr {
			outsider = tp
			break
		}
	}
	dec, dst := outsider.peer.Route(sig)
	if dec != Forward || dst != ownerAddr {
		t.Fatalf("outsider routed %v to %s, want Forward to %s", dec, dst, ownerAddr)
	}
	status, _, resp, err := outsider.peer.Forward(dst, "/v1/optimize", body)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if status != 200 || string(resp) != sig.String() {
		t.Fatalf("forwarded answer %d %q, want 200 %q", status, resp, sig)
	}
	status, _, _, err = outsider.peer.Forward(dst, "/v1/optimize", body)
	if err != nil || status != 200 {
		t.Fatalf("second forward: %d %v", status, err)
	}
	os := owner.peer.Stats()
	if os.ForwardServed != 2 || os.ForwardServedWarm != 1 {
		t.Fatalf("owner served %d forwards (%d warm), want 2 (1 warm)", os.ForwardServed, os.ForwardServedWarm)
	}
	if owner.peer.Stats().OwnedLocal != 0 {
		t.Fatal("forwarded serving counted as client-side routing")
	}

	// The owner routes its own signature locally.
	if dec, _ := owner.peer.Route(sig); dec != Local {
		t.Fatal("owner did not route its own signature locally")
	}

	// Replication: push the warm entry to the replica set; the replica
	// then answers locally — the cross-node warm hit.
	owner.peer.ReplicateAsync(sig)
	owner.peer.FlushReplication()
	replicaAddr := ""
	for _, tp := range peers {
		if tp.addr != ownerAddr && tp.planner.ResidentFresh(sig) {
			replicaAddr = tp.addr
		}
	}
	if replicaAddr == "" {
		t.Fatal("no replica holds the entry fresh after FlushReplication")
	}
	replica := byAddr(t, peers, replicaAddr)
	if dec, _ := replica.peer.Route(sig); dec != Local {
		t.Fatal("fresh replica did not serve locally")
	}
	rs := replica.peer.Stats()
	if rs.ReplicasApplied != 1 || rs.ReplicaHits != 1 {
		t.Fatalf("replica stats %+v, want 1 applied / 1 hit", rs)
	}
	if owner.peer.Stats().ReplicasPushed == 0 {
		t.Fatal("owner recorded no replica pushes")
	}

	// Remote anchor bump: a third node publishes generation 5 and gossips
	// it. Every other peer installs it, and the replica's entry — fitted
	// under generation 0 — must stop serving: stale-generation rejection.
	bumper := outsider
	if !bumper.registry.Install(&adapt.Snapshot{Gen: 5}) {
		t.Fatal("bump install refused")
	}
	if err := bumper.peer.BroadcastAnchor(); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	for _, tp := range peers {
		if tp.registry.Generation() != 5 {
			t.Fatalf("peer %s at generation %d after gossip, want 5", tp.addr, tp.registry.Generation())
		}
	}
	if got := bumper.peer.Stats().GossipSent; got != 2 {
		t.Fatalf("gossip sent %d, want 2", got)
	}
	applied := int64(0)
	for _, tp := range peers {
		applied += tp.peer.Stats().GossipApplied
	}
	if applied != 2 {
		t.Fatalf("gossip applied %d times, want 2", applied)
	}
	if replica.planner.ResidentFresh(sig) {
		t.Fatal("replica entry still fresh after remote generation bump")
	}
	// NOTE: the signature itself may move under the new overlay; assert
	// the rejection on the cached generation, which Route consults.

	// Re-broadcasting the same anchor is ignored everywhere.
	if err := bumper.peer.BroadcastAnchor(); err != nil {
		t.Fatalf("re-broadcast: %v", err)
	}
	ignored := int64(0)
	for _, tp := range peers {
		ignored += tp.peer.Stats().GossipIgnored
	}
	if ignored != 2 {
		t.Fatalf("gossip ignored %d times, want 2", ignored)
	}
}

// TestFleetStaleReplicaImport: a replica that is already on a newer anchor
// generation stores a pushed gen-0 entry as stale — it keeps forwarding
// rather than serving a plan fitted to parameters it does not hold.
func TestFleetStaleReplicaImport(t *testing.T) {
	peers := startFleet(t, 3, 3)
	q := fleetQuery(t, 5, 31)

	sig, _ := peers[0].planner.SignatureFor(q)
	owner := byAddr(t, peers, peers[0].peer.Owner(sig))
	if _, err := owner.planner.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	// Both replicas jump ahead before the push arrives.
	var replicas []*testPeer
	for _, tp := range peers {
		if tp != owner {
			tp.registry.Install(&adapt.Snapshot{Gen: 9})
			replicas = append(replicas, tp)
		}
	}
	owner.peer.ReplicateAsync(sig)
	owner.peer.FlushReplication()

	stale := int64(0)
	for _, tp := range replicas {
		stale += tp.peer.Stats().ReplicasStale
		if tp.peer.Stats().ReplicasApplied != 0 {
			t.Fatalf("ahead-of-anchor replica %s applied the entry as fresh", tp.addr)
		}
		if tp.planner.ResidentFresh(sig) {
			t.Fatalf("replica %s serves a cross-generation entry", tp.addr)
		}
	}
	if stale != 2 {
		t.Fatalf("stale imports %d, want 2", stale)
	}
}

// TestFleetForwardFailure: a dead owner fails the forward with an error
// (the serve layer then falls back to serving locally) and records it.
func TestFleetForwardFailure(t *testing.T) {
	peers := startFleet(t, 3, 2)
	q := fleetQuery(t, 5, 19)
	body, _ := json.Marshal(q)

	sig, _ := peers[0].planner.SignatureFor(q)
	owner := byAddr(t, peers, peers[0].peer.Owner(sig))
	var outsider *testPeer
	for _, tp := range peers {
		if tp != owner {
			outsider = tp
			break
		}
	}
	owner.peer.Close() // peer death

	if _, _, _, err := outsider.peer.Forward(owner.addr, "/v1/optimize", body); err == nil {
		t.Fatal("forward to a dead peer succeeded")
	}
	if got := outsider.peer.Stats().ForwardFailed; got != 1 {
		t.Fatalf("forward failures %d, want 1", got)
	}
}

// TestFleetOptionsValidation: the constructor refuses the configurations
// that would route traffic into nowhere.
func TestFleetOptionsValidation(t *testing.T) {
	t.Parallel()
	pl := planner.New(planner.Config{})
	if _, err := New(Options{Self: "a", Peers: []string{"a"}}); err == nil {
		t.Fatal("accepted nil planner")
	}
	if _, err := New(Options{Planner: pl, Self: "a"}); err == nil {
		t.Fatal("accepted empty peer list")
	}
	if _, err := New(Options{Planner: pl, Self: "d", Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("accepted self outside the peer list")
	}
	p, err := New(Options{Planner: pl, Self: "a", Peers: []string{"a", "b", "c"}, Replication: 99})
	if err != nil {
		t.Fatal(err)
	}
	if p.repl != 3 {
		t.Fatalf("replication clamped to %d, want 3", p.repl)
	}
}

// TestFleetForwardConnDropAndErrorFrame: a cached peer connection that
// dies mid-stream is dropped and redialed on the next call, and an
// owner-side error frame (here: no local handler registered) surfaces as
// a forward failure, not a served response.
func TestFleetForwardConnDropAndErrorFrame(t *testing.T) {
	peers := startFleet(t, 2, 2)
	q := fleetQuery(t, 5, 23)
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	sig, ok := peers[0].planner.SignatureFor(q)
	if !ok {
		t.Fatal("SignatureFor refused")
	}
	owner := byAddr(t, peers, peers[0].peer.Owner(sig))
	outsider := peers[0]
	if outsider == owner {
		outsider = peers[1]
	}
	if got := outsider.peer.Self(); got != outsider.addr {
		t.Fatalf("Self() = %q, want %q", got, outsider.addr)
	}

	// Healthy forward: dials and caches the connection.
	status, _, _, err := outsider.peer.Forward(owner.addr, "/v1/optimize", body)
	if err != nil || status != 200 {
		t.Fatalf("healthy forward: status %d, err %v", status, err)
	}
	// Kill the owner; the cached connection must be dropped on failure.
	owner.peer.Close()
	if _, _, _, err := outsider.peer.Forward(owner.addr, "/v1/optimize", body); err == nil {
		t.Fatal("forward over a dead cached connection succeeded")
	}
	if got := outsider.peer.Stats().ForwardFailed; got != 1 {
		t.Fatalf("forward failures %d, want 1", got)
	}
	// And the next attempt redials from scratch (and fails cleanly again).
	if _, _, _, err := outsider.peer.Forward(owner.addr, "/v1/optimize", body); err == nil {
		t.Fatal("forward to a dead peer succeeded after redial")
	}
}

// A peer that never registered a local handler answers forwards with an
// error frame; the forwarding side must report it as a failure.
func TestFleetForwardNoLocalHandler(t *testing.T) {
	servers := make([]*PeerServer, 2)
	addrs := make([]string, 2)
	for i := range servers {
		ps, err := ListenPeer("127.0.0.1:0", "nohandler")
		if err != nil {
			t.Fatalf("listen peer %d: %v", i, err)
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}
	fleetPeers := make([]*Peer, 2)
	for i := range fleetPeers {
		fp, err := New(Options{
			FleetID: "nohandler",
			Self:    addrs[i],
			Peers:   addrs,
			Planner: planner.New(planner.Config{}),
			Server:  servers[i],
		})
		if err != nil {
			t.Fatalf("fleet peer %d: %v", i, err)
		}
		fp.Run() // deliberately no SetLocalHandler
		fleetPeers[i] = fp
	}
	t.Cleanup(func() {
		for _, fp := range fleetPeers {
			fp.Close()
		}
	})

	_, _, _, err := fleetPeers[0].Forward(addrs[1], "/v1/optimize", []byte("{}"))
	if err == nil || !strings.Contains(err.Error(), "no local handler") {
		t.Fatalf("forward to a handler-less peer: %v", err)
	}
	if got := fleetPeers[0].Stats().ForwardFailed; got != 1 {
		t.Fatalf("forward failures %d, want 1", got)
	}
}
