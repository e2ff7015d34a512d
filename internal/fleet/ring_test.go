package fleet

import (
	"math/rand"
	"testing"
)

// TestRingDeterministic: two rings built from the same configuration agree
// on every owner and replica set — the property the whole fleet rests on,
// since each node computes routing independently.
func TestRingDeterministic(t *testing.T) {
	t.Parallel()
	peers := []string{"a:1", "b:2", "c:3"}
	r1 := newRing("fleet", peers)
	r2 := newRing("fleet", peers)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		h := rng.Uint64()
		if r1.owner(h) != r2.owner(h) {
			t.Fatalf("rings disagree on owner of %x", h)
		}
		s1, s2 := r1.replicaSet(h, 2), r2.replicaSet(h, 2)
		if len(s1) != 2 || len(s2) != 2 || s1[0] != s2[0] || s1[1] != s2[1] {
			t.Fatalf("rings disagree on replica set of %x: %v vs %v", h, s1, s2)
		}
	}
}

// TestRingReplicaSet: owner first, all distinct, clamped to the peer
// count.
func TestRingReplicaSet(t *testing.T) {
	t.Parallel()
	peers := []string{"a:1", "b:2", "c:3"}
	r := newRing("fleet", peers)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1024; i++ {
		h := rng.Uint64()
		set := r.replicaSet(h, 2)
		if len(set) != 2 {
			t.Fatalf("replica set size %d, want 2", len(set))
		}
		if set[0] != r.owner(h) {
			t.Fatalf("replica set %v does not start with owner %s", set, r.owner(h))
		}
		if set[0] == set[1] {
			t.Fatalf("replica set %v repeats a peer", set)
		}
		if got := r.replicaSet(h, 10); len(got) != len(peers) {
			t.Fatalf("overlarge n gave %d replicas, want %d", len(got), len(peers))
		}
		if got := r.replicaSet(h, 0); got != nil {
			t.Fatalf("n=0 gave %v, want nil", got)
		}
	}
}

// TestRingBalance: with 64 virtual nodes per peer, no peer's share of a
// uniform hash stream collapses — each of 3 peers holds at least 15% (the
// expectation is 33%).
func TestRingBalance(t *testing.T) {
	t.Parallel()
	peers := []string{"a:1", "b:2", "c:3"}
	r := newRing("fleet", peers)
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.owner(rng.Uint64())]++
	}
	for _, p := range peers {
		if frac := float64(counts[p]) / n; frac < 0.15 {
			t.Fatalf("peer %s owns only %.1f%% of the space (counts %v)", p, frac*100, counts)
		}
	}
}

// TestRingSinglePeer: a one-peer fleet owns everything and replicates
// nowhere.
func TestRingSinglePeer(t *testing.T) {
	t.Parallel()
	r := newRing("fleet", []string{"solo:1"})
	if got := r.owner(12345); got != "solo:1" {
		t.Fatalf("owner %s", got)
	}
	if set := r.replicaSet(98765, 3); len(set) != 1 || set[0] != "solo:1" {
		t.Fatalf("replica set %v", set)
	}
}
