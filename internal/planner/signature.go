package planner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"

	"serviceordering/internal/ccache"
	"serviceordering/internal/model"
)

// Signature is the canonical identity of a query: the SHA-256 digest of the
// query serialized under its canonical service ordering. Two queries receive
// the same signature exactly when they are isomorphic as cost structures —
// same service parameter multiset, same transfer matrix up to the matching
// relabeling, same source/sink vectors and precedence relation — so a plan
// cached for one is (after index relabeling) optimal for the other.
//
// Service names are deliberately excluded: they do not affect optimization.
type Signature [sha256.Size]byte

// String renders the signature as lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// shardIndex maps the signature onto one of n cache shards (n a power of
// two). The digest bytes are uniformly distributed, so the low bits of the
// leading word suffice.
func (s Signature) shardIndex(n int) int {
	return int(binary.LittleEndian.Uint64(s[:8]) & uint64(n-1))
}

// canonical holds the result of canonicalizing one query: the signature and
// the permutation linking canonical positions to the query's own indices.
// It is passed by value so the warm hit path never heap-allocates one: a
// raw-memo hit hands back the memo entry's shared perm/inv slices inside a
// stack-resident struct (the slices are read-only after construction).
type canonical struct {
	sig Signature

	// perm[c] is the original service index occupying canonical slot c.
	perm []int

	// inv[o] is the canonical slot of original service index o.
	inv []int
}

// toCanonical relabels a plan expressed in the query's index space into
// canonical index space.
func (c canonical) toCanonical(p model.Plan) model.Plan {
	out := make(model.Plan, len(p))
	for i, s := range p {
		out[i] = c.inv[s]
	}
	return out
}

// fromCanonical relabels a canonical-space plan into the query's own index
// space.
func (c canonical) fromCanonical(p model.Plan) model.Plan {
	out := make(model.Plan, len(p))
	for i, s := range p {
		out[i] = c.perm[s]
	}
	return out
}

// maxCanonCandidates bounds the tie-break enumeration: when color
// refinement leaves ambiguity (automorphic or refinement-equivalent
// services), at most this many candidate orderings are serialized to pick
// the lexicographically least. Beyond the bound canonicalization degrades
// gracefully to a deterministic-but-label-sensitive order, which can only
// cost cache hits, never correctness.
const maxCanonCandidates = 20160 // 8!/2, comfortably above realistic tie groups

// canonicalize computes the canonical permutation and signature of q.
//
// The normalization is a color-refinement pass (Weisfeiler–Lehman style)
// over the weighted transfer digraph: services start with a color derived
// from their scalar parameters (cost, selectivity, threads, source and sink
// transfer) and are iteratively refined by the multiset of
// (edge-weight, neighbor-color) pairs on outgoing and incoming transfer
// edges plus the colors across precedence edges. Real-valued costs almost
// always yield a discrete partition in one or two rounds; residual ties are
// resolved by enumerating orderings within tie groups and keeping the
// lexicographically least serialization, so relabelings of the same
// structure — including automorphic ones — converge to identical bytes.
func canonicalize(q *model.Query) canonical {
	n := q.N()
	colors := initialColors(q)
	refineColors(q, colors)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if colors[ia] != colors[ib] {
			return colors[ia] < colors[ib]
		}
		return ia < ib
	})

	// Group maximal runs of equal colors; singletons are fully determined.
	type group struct{ lo, hi int } // half-open [lo, hi) into order
	var groups []group
	candidates := 1
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && colors[order[hi]] == colors[order[lo]] {
			hi++
		}
		if hi-lo > 1 {
			groups = append(groups, group{lo, hi})
			f := factorial(hi - lo)
			if candidates > maxCanonCandidates/f {
				candidates = maxCanonCandidates + 1
			} else {
				candidates *= f
			}
		}
		lo = hi
	}

	best := append([]int(nil), order...)
	buf := make([]byte, 0, canonicalSize(q))
	if len(groups) > 0 && candidates <= maxCanonCandidates {
		bestBytes := encodeCanonical(q, best, buf)
		perm := append([]int(nil), order...)
		scratch := make([]byte, 0, len(bestBytes))
		var walk func(g int)
		walk = func(g int) {
			if g == len(groups) {
				scratch = encodeCanonical(q, perm, scratch[:0])
				if string(scratch) < string(bestBytes) {
					bestBytes = append(bestBytes[:0], scratch...)
					copy(best, perm)
				}
				return
			}
			gr := groups[g]
			permuteRange(perm, gr.lo, gr.hi, func() { walk(g + 1) })
		}
		walk(0)
		return canonical{sig: sha256.Sum256(bestBytes), perm: best, inv: invert(best)}
	}

	bytes := encodeCanonical(q, best, buf)
	return canonical{sig: sha256.Sum256(bytes), perm: best, inv: invert(best)}
}

func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for c, o := range perm {
		inv[o] = c
	}
	return inv
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
		if f > maxCanonCandidates {
			return maxCanonCandidates + 1
		}
	}
	return f
}

// permuteRange enumerates all permutations of perm[lo:hi] in place (Heap's
// algorithm), invoking visit for each and restoring the slice afterwards.
func permuteRange(perm []int, lo, hi int, visit func()) {
	k := hi - lo
	var heaps func(m int)
	heaps = func(m int) {
		if m == 1 {
			visit()
			return
		}
		for i := 0; i < m; i++ {
			heaps(m - 1)
			if m%2 == 0 {
				perm[lo+i], perm[lo+m-1] = perm[lo+m-1], perm[lo+i]
			} else {
				perm[lo], perm[lo+m-1] = perm[lo+m-1], perm[lo]
			}
		}
	}
	saved := append([]int(nil), perm[lo:hi]...)
	heaps(k)
	copy(perm[lo:hi], saved)
}

// initialColors seeds each service with a hash of its optimization-relevant
// scalar parameters.
func initialColors(q *model.Query) []uint64 {
	n := q.N()
	colors := make([]uint64, n)
	var buf [40]byte
	for i, s := range q.Services {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(s.Cost))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.Selectivity))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(s.ThreadCount()))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(sourceOf(q, i)))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(sinkOf(q, i)))
		colors[i] = fnv64(buf[:])
	}
	return colors
}

// refineColors runs color refinement until the partition stabilizes (at
// most n rounds). Each round rehashes every service with the sorted
// multisets of (transfer weight, neighbor color) over outgoing and incoming
// edges and the sorted neighbor colors across precedence edges.
func refineColors(q *model.Query, colors []uint64) {
	n := q.N()
	succ := make([][]int, n)
	pred := make([][]int, n)
	for _, e := range q.Precedence {
		succ[e[0]] = append(succ[e[0]], e[1])
		pred[e[1]] = append(pred[e[1]], e[0])
	}

	// next also serves countDistinct as scratch: each round overwrites
	// every element before reading any.
	next := make([]uint64, n)
	profile := make([]uint64, 0, 4*n)
	buf := make([]byte, 0, 64*n)
	prev := countDistinct(colors, next)
	for round := 0; round < n; round++ {
		for i := 0; i < n; i++ {
			profile = profile[:0]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				profile = append(profile, mix(math.Float64bits(q.Transfer[i][j]), colors[j]))
			}
			sortUint64(profile[:n-1])
			out := len(profile)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				profile = append(profile, mix(math.Float64bits(q.Transfer[j][i]), colors[j]))
			}
			sortUint64(profile[out:])
			in := len(profile)
			for _, j := range succ[i] {
				profile = append(profile, colors[j])
			}
			sortUint64(profile[in:])
			ps := len(profile)
			for _, j := range pred[i] {
				profile = append(profile, colors[j])
			}
			sortUint64(profile[ps:])

			buf = buf[:0]
			buf = appendUint64(buf, colors[i])
			for _, v := range profile {
				buf = appendUint64(buf, v)
			}
			next[i] = fnv64(buf)
		}
		copy(colors, next)
		cur := countDistinct(colors, next)
		if cur == prev || cur == n {
			return
		}
		prev = cur
	}
}

// countDistinct returns the number of distinct colors, counting runs in a
// sorted copy of them in scratch (at least as long as colors) instead of
// building a set.
func countDistinct(colors, scratch []uint64) int {
	sorted := scratch[:len(colors)]
	copy(sorted, colors)
	sortUint64(sorted)
	distinct := 0
	for i, c := range sorted {
		if i == 0 || c != sorted[i-1] {
			distinct++
		}
	}
	return distinct
}

func sortUint64(v []uint64) { slices.Sort(v) }

// canonicalSize returns the length of encodeCanonical's serialization of
// q, whatever the permutation.
func canonicalSize(q *model.Query) int {
	n := q.N()
	size := 8 + n*5*8 + n*n*8
	if len(q.Precedence) > 0 {
		size += 8 + len(q.Precedence)*16
	}
	return size
}

// encodeCanonical serializes q under the given permutation (perm[c] = the
// original index at canonical slot c) into dst, reusing its capacity.
func encodeCanonical(q *model.Query, perm []int, dst []byte) []byte {
	n := q.N()
	dst = appendUint64(dst, uint64(n))
	for c := 0; c < n; c++ {
		o := perm[c]
		s := q.Services[o]
		dst = appendFloat(dst, s.Cost)
		dst = appendFloat(dst, s.Selectivity)
		dst = appendFloat(dst, s.ThreadCount())
		dst = appendFloat(dst, sourceOf(q, o))
		dst = appendFloat(dst, sinkOf(q, o))
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			dst = appendFloat(dst, q.Transfer[perm[a]][perm[b]])
		}
	}
	if len(q.Precedence) > 0 {
		inv := invert(perm)
		edges := make([][2]int, len(q.Precedence))
		for k, e := range q.Precedence {
			edges[k] = [2]int{inv[e[0]], inv[e[1]]}
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a][0] != edges[b][0] {
				return edges[a][0] < edges[b][0]
			}
			return edges[a][1] < edges[b][1]
		})
		dst = appendUint64(dst, uint64(len(edges)))
		for _, e := range edges {
			dst = appendUint64(dst, uint64(e[0]))
			dst = appendUint64(dst, uint64(e[1]))
		}
	}
	return dst
}

// encodeRaw serializes q exactly as given (no relabeling) into dst. It is
// the key of the canonicalization memo: byte-identical resubmissions of a
// query skip the refinement pass entirely. The layout mirrors
// encodeCanonical with the identity permutation, plus explicit presence
// markers so e.g. a nil and an all-zero sink vector cannot collide.
func encodeRaw(q *model.Query, dst []byte) []byte {
	n := q.N()
	dst = appendUint64(dst, uint64(n))
	var marks uint64
	if q.SourceTransfer != nil {
		marks |= 1
	}
	if q.SinkTransfer != nil {
		marks |= 2
	}
	dst = appendUint64(dst, marks)
	for i, s := range q.Services {
		dst = appendFloat(dst, s.Cost)
		dst = appendFloat(dst, s.Selectivity)
		dst = appendFloat(dst, s.ThreadCount())
		dst = appendFloat(dst, sourceOf(q, i))
		dst = appendFloat(dst, sinkOf(q, i))
	}
	for i := 0; i < n; i++ {
		row := q.Transfer[i]
		for j := 0; j < n; j++ {
			dst = appendFloat(dst, row[j])
		}
	}
	dst = appendUint64(dst, uint64(len(q.Precedence)))
	for _, e := range q.Precedence {
		dst = appendUint64(dst, uint64(e[0]))
		dst = appendUint64(dst, uint64(e[1]))
	}
	return dst
}

func sourceOf(q *model.Query, i int) float64 {
	if q.SourceTransfer == nil {
		return 0
	}
	return q.SourceTransfer[i]
}

func sinkOf(q *model.Query, i int) float64 {
	if q.SinkTransfer == nil {
		return 0
	}
	return q.SinkTransfer[i]
}

func appendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendFloat(dst []byte, v float64) []byte {
	return appendUint64(dst, math.Float64bits(v))
}

// fnv64 is ccache.FNV64 (FNV-1a): cheap, allocation-free, and
// deterministic across processes (unlike hash/maphash). It hashes the
// refinement colors, which must agree across processes because the
// signature they refine into does (the fleet ring, SOP1 snapshots), and
// which tolerate collisions (a collision merely coarsens the partition).
// The raw memo's key stays in the process and uses a seeded maphash
// instead (rawMemo.key).
func fnv64(b []byte) uint64 { return ccache.FNV64(b) }

// mix combines two words into one (used for (weight, color) profile
// entries) with a xorshift-multiply finalizer.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}
