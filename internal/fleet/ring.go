// Package fleet shards the canonical plan-signature space across a set of
// dqserve peers with a consistent-hash ring, forwards requests that land
// on the wrong owner, replicates warm plan-cache entries owner→replica,
// and gossips adaptive anchor snapshots so every peer replans off the same
// generation. Peers talk over newline-delimited JSON frames (peer.go), one
// TCP connection per peer pair, behind a fleet-ID handshake.
package fleet

import (
	"sort"
	"strconv"

	"serviceordering/internal/ccache"
)

// defaultVirtualNodes is the per-peer virtual-node count. 64 points per
// peer keeps the expected ownership imbalance across 3–10 peers within a
// few percent, and the whole ring under a kilobyte.
const defaultVirtualNodes = 64

type ringPoint struct {
	hash uint64
	peer int // index into ring.peers
}

// ring is an immutable consistent-hash ring over the fleet's peer IDs.
// Ownership of a signature hash is the first ring point clockwise from it;
// replicas are the next distinct peers clockwise. Every peer builds the
// identical ring from the identical (fleetID, peers) configuration — there
// is no membership protocol, matching dqserve's static -peers flag.
type ring struct {
	peers  []string
	points []ringPoint
}

func newRing(fleetID string, peers []string, virtualNodes int) *ring {
	if virtualNodes <= 0 {
		virtualNodes = defaultVirtualNodes
	}
	r := &ring{peers: append([]string(nil), peers...)}
	r.points = make([]ringPoint, 0, len(peers)*virtualNodes)
	for i, p := range r.peers {
		for v := 0; v < virtualNodes; v++ {
			key := fleetID + "|" + p + "#" + strconv.Itoa(v)
			r.points = append(r.points, ringPoint{hash: ccache.FNV64([]byte(key)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on peer index so every node sorts identically even in
		// the (astronomically unlikely) event of a point-hash collision.
		return r.points[a].peer < r.points[b].peer
	})
	return r
}

// owner returns the peer owning hash h: the first ring point at or after
// h, wrapping.
func (r *ring) owner(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer]
}

// replicaSet returns the n distinct peers responsible for hash h, owner
// first, walking clockwise. n is clamped to the peer count.
func (r *ring) replicaSet(h uint64, n int) []string {
	if n > len(r.peers) {
		n = len(r.peers)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for steps := 0; steps < len(r.points) && len(out) < n; steps++ {
		p := r.points[(i+steps)%len(r.points)]
		if !seen[p.peer] {
			seen[p.peer] = true
			out = append(out, r.peers[p.peer])
		}
	}
	return out
}
