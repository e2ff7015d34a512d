package htier

import (
	"encoding/binary"
	"sort"

	"serviceordering/internal/model"
)

// Beam search over the prefix DAG. A node of the DAG is a (placed-set,
// last-service) state — the same identity under which the bottleneck
// objective collapses prefixes (two prefixes over the same set ending in
// the same service have identical futures), which is what makes the
// search a DAG walk rather than a tree walk. Each level keeps the `width`
// states of smallest epsilon, expands every precedence-feasible extension
// of each, and deduplicates the selected states so the beam's diversity
// is not wasted on equivalent prefixes.
//
// Precedence feasibility is preserved level by level: every kept state's
// placed set is a down-set of the constraint order, and a down-set always
// has a feasible extension, so the beam never dead-ends. Ties are broken
// by (epsilon, parent rank, service index), making the result
// deterministic for a given (query, width, budget).

type beamState struct {
	st     model.PrefixState
	plan   model.Plan
	placed model.Bitset
}

type beamCand struct {
	parent int
	svc    int
	eps    float64
}

// beamSearch returns the cheapest complete plan the beam reaches and its
// cost. The effective width is reduced (never below 1) when width · n²
// would exceed budget.
func beamSearch(q *model.Query, prec *model.Precedence, width int, budget int64) (model.Plan, float64) {
	n := q.N()
	if budget > 0 {
		if maxW := budget / (int64(n) * int64(n)); maxW < int64(width) {
			width = int(maxW)
			if width < 1 {
				width = 1
			}
		}
	}

	empty := model.NewBitset(n)

	// Level 0: rank the feasible first services.
	cands := make([]beamCand, 0, n)
	for s := 0; s < n; s++ {
		if !prec.CanPlaceBits(s, empty) {
			continue
		}
		eps := model.EmptyPrefix().Append(q, s).Epsilon(q)
		cands = append(cands, beamCand{parent: -1, svc: s, eps: eps})
	}
	if len(cands) == 0 {
		return nil, 0
	}
	sortCands(cands)
	if len(cands) > width {
		cands = cands[:width]
	}
	states := make([]beamState, 0, width)
	for _, c := range cands {
		placed := model.NewBitset(n)
		placed.Set(c.svc)
		states = append(states, beamState{
			st:     model.EmptyPrefix().Append(q, c.svc),
			plan:   model.Plan{c.svc},
			placed: placed,
		})
	}

	keyBuf := make([]byte, len(empty)*8+4)
	keyWords := make(model.Bitset, len(empty))
	seen := make(map[string]struct{}, width)

	for depth := 1; depth < n; depth++ {
		cands = cands[:0]
		for pi := range states {
			st := &states[pi]
			for s := 0; s < n; s++ {
				if st.placed.Test(s) || !prec.CanPlaceBits(s, st.placed) {
					continue
				}
				eps := st.st.Append(q, s).Epsilon(q)
				cands = append(cands, beamCand{parent: pi, svc: s, eps: eps})
			}
		}
		sortCands(cands)

		next := make([]beamState, 0, width)
		for k := range seen {
			delete(seen, k)
		}
		for _, c := range cands {
			if len(next) == width {
				break
			}
			parent := &states[c.parent]
			key := stateKey(parent.placed, c.svc, keyWords, keyBuf)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}

			plan := make(model.Plan, depth+1)
			copy(plan, parent.plan)
			plan[depth] = c.svc
			placed := parent.placed.Clone()
			placed.Set(c.svc)
			next = append(next, beamState{st: parent.st.Append(q, c.svc), plan: plan, placed: placed})
		}
		states = next
	}

	best, bestCost := -1, 0.0
	for i := range states {
		if cost := states[i].st.Complete(q); best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return nil, 0
	}
	return states[best].plan, bestCost
}

// sortCands orders candidates by (epsilon, parent rank, service index);
// parents are already ranked by the previous level's selection, so the
// order — and with it the whole beam — is deterministic.
func sortCands(cands []beamCand) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.eps != b.eps {
			return a.eps < b.eps
		}
		if a.parent != b.parent {
			return a.parent < b.parent
		}
		return a.svc < b.svc
	})
}

// stateKey encodes the (placed ∪ {svc}, svc) state identity into buf and
// returns it as a string for map lookup. words and buf are scratch reused
// across calls.
func stateKey(placed model.Bitset, svc int, words model.Bitset, buf []byte) string {
	copy(words, placed)
	words.Set(svc)
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	binary.LittleEndian.PutUint32(buf[len(words)*8:], uint32(svc))
	return string(buf)
}
