package core

import (
	"math"
)

// This file computes the two bounds that drive pruning:
//
//   - epsilonBar: an upper bound on the cost any not-yet-placed service
//     (or the finalization of the prefix's last service) can contribute in
//     ANY completion of the prefix. When epsilon >= epsilonBar, Lemma 2
//     closes the prefix: all completions cost exactly epsilon.
//   - completionLB: an admissible lower bound on the cost of the BEST
//     completion, used by the optional strong-lower-bound extension.
//
// Tight bounds need, per remaining service r, the max (resp. min) transfer
// from r to any other remaining service. A naive rescan is O(R^2) per node
// (epsilonBarRef / completionLBRef below, kept as the reference
// implementations the differential tests compare against bit-for-bit). The
// production path instead walks r's presorted transfer order to the first
// service whose placed bit is clear: the prefix occupies only depth bits,
// so the walk ends after O(1) steps for all but adversarial instances and
// the whole bound costs ~O(R) per node. The walk returns the same float64
// the rescan would, so the bound values are bitwise identical.
//
// The closure test additionally short-circuits: dfs only needs to know
// whether some bound term exceeds epsilon, so closureBar stops at the
// first such term. The decision is identical to comparing the full
// maximum (a term exceeds epsilon iff the maximum does); the exact bar
// value is only materialized when the prefix actually closes, which is
// when the trace wants it.
//
// Loose bounds use maxima/minima over all services, the ends of each
// presorted order (Options.LooseBounds): O(R) per node but weaker
// closure.

// maxToRemaining returns the largest Transfer[l][j] over the unplaced
// services j != l, by walking l's ascending presorted order backwards to
// the first unplaced entry. ok is false when every other service is
// placed.
func (s *search) maxToRemaining(l int) (float64, bool) {
	base := l * (s.n - 1)
	idx := s.ascIdx[base : base+s.n-1]
	val := s.ascVal[base : base+len(idx)]
	for k := len(idx) - 1; k >= 0; k-- {
		if s.placed&(1<<uint(idx[k])) == 0 {
			return val[k], true
		}
	}
	return 0, false
}

// minToRemaining is maxToRemaining's mirror, walking forwards.
func (s *search) minToRemaining(l int) (float64, bool) {
	base := l * (s.n - 1)
	idx := s.ascIdx[base : base+s.n-1]
	for k, j := range idx {
		if s.placed&(1<<uint(j)) == 0 {
			return s.ascVal[base+k], true
		}
	}
	return 0, false
}

// closureBar decides Lemma 2 for the current prefix: closed reports
// whether eps >= epsilonBar, and when closed the exact epsilonBar value is
// returned. When not closed the loop exits at the first term above eps
// and bar is meaningless.
func (s *search) closureBar(eps float64, ps pstate, rem []int) (bar float64, closed bool) {
	last := ps.last
	pBefore := ps.prodBefore
	p := pBefore * s.sel[last]

	// Finalizing the last service: its successor is one of the remaining
	// services.
	var lastOut float64
	if s.opts.LooseBounds {
		_, lastOut = s.transferRange(last)
	} else if t, ok := s.maxToRemaining(last); ok && t > lastOut {
		lastOut = t
	}
	bar = pBefore * (s.cost[last] + s.sel[last]*lastOut) / s.tc[last]
	if bar > eps {
		return bar, false
	}

	// Proliferation factor: in the worst case every remaining service
	// with sigma > 1 precedes r. prefixG/suffixG give the product over
	// rem excluding r itself without a division (float division could
	// round the bound down, which would be unsound).
	g := s.growthScratch[:len(rem)+1]
	g[0] = 1
	for i, r := range rem {
		g[i+1] = g[i] * s.gmax[r]
	}
	suffix := 1.0
	for i := len(rem) - 1; i >= 0; i-- {
		r := rem[i]
		var out float64
		if s.opts.LooseBounds {
			_, hi := s.transferRange(r)
			out = math.Max(hi, s.sink[r]) // max transfer to any service, or to the sink
		} else {
			out = s.sink[r]
			if t, ok := s.maxToRemaining(r); ok && t > out {
				out = t
			}
		}
		term := p * g[i] * suffix * (s.cost[r] + s.sel[r]*out) / s.tc[r]
		if term > eps {
			return term, false
		}
		if term > bar {
			bar = term
		}
		suffix *= s.gmax[r]
	}
	return bar, true
}

// epsilonBar returns the full Lemma 2 upper bound for the current prefix
// state: the maximum over closureBar's terms with no early exit. rem holds
// the unplaced service indices (consistent with s.placed); it must be
// non-empty.
func (s *search) epsilonBar(ps pstate, rem []int) float64 {
	bar, _ := s.closureBar(math.Inf(1), ps, rem)
	return bar
}

// completionLB returns an admissible lower bound on the cost of any
// completion of the prefix: every remaining service r must eventually be
// placed, with a prefix product no smaller than the all-filters product of
// the other remaining services, paying at least its cheapest possible
// outgoing transfer; and the last service of the prefix must be finalized
// with at least its cheapest transfer to a remaining service.
func (s *search) completionLB(ps pstate, rem []int) float64 {
	last := ps.last
	pBefore := ps.prodBefore
	p := pBefore * s.sel[last]

	lastOut := math.Inf(1)
	if s.opts.LooseBounds {
		lastOut, _ = s.transferRange(last)
	} else if t, ok := s.minToRemaining(last); ok && t < lastOut {
		lastOut = t
	}
	lb := pBefore * (s.cost[last] + s.sel[last]*lastOut) / s.tc[last]

	// Shrink factor: the smallest possible prefix product uses every
	// remaining filter, r's own factor included (slightly loose, division
	// free — a smaller factor keeps the bound admissible).
	shrink := 1.0
	for _, r := range rem {
		shrink *= s.gmin[r]
	}
	for _, r := range rem {
		var out float64
		if s.opts.LooseBounds {
			lo, _ := s.transferRange(r)
			out = math.Min(lo, s.sink[r])
		} else {
			out = s.sink[r]
			if t, ok := s.minToRemaining(r); ok && t < out {
				out = t
			}
		}
		term := p * shrink * (s.cost[r] + s.sel[r]*out) / s.tc[r]
		if term > lb {
			lb = term
		}
	}
	return lb
}

// epsilonBarRef is the pre-optimization tight epsilonBar: transfer maxima
// recomputed by an O(R^2) rescan of the remaining set, reading the query
// directly instead of the prep arrays. It is retained as the reference
// implementation for the bound-equivalence differential test and must stay
// bitwise identical to epsilonBar with LooseBounds off.
func (s *search) epsilonBarRef(ps pstate, rem []int) float64 {
	q := s.q
	last := ps.last
	pBefore := ps.prodBefore
	p := pBefore * q.Services[last].Selectivity

	var lastOut float64
	for _, r := range rem {
		if t := q.Transfer[last][r]; t > lastOut {
			lastOut = t
		}
	}
	sl := q.Services[last]
	bar := pBefore * (sl.Cost + sl.Selectivity*lastOut) / sl.ThreadCount()

	g := s.growthScratch[:len(rem)+1]
	g[0] = 1
	for i, r := range rem {
		g[i+1] = g[i] * math.Max(q.Services[r].Selectivity, 1)
	}
	suffix := 1.0
	for i := len(rem) - 1; i >= 0; i-- {
		r := rem[i]
		svc := q.Services[r]
		out := s.sink[r]
		for _, o := range rem {
			if o == r {
				continue
			}
			if t := q.Transfer[r][o]; t > out {
				out = t
			}
		}
		term := p * g[i] * suffix * (svc.Cost + svc.Selectivity*out) / svc.ThreadCount()
		if term > bar {
			bar = term
		}
		suffix *= math.Max(svc.Selectivity, 1)
	}
	return bar
}

// completionLBRef is the O(R^2) reference implementation of completionLB
// (tight bounds), kept for the bound-equivalence differential test.
func (s *search) completionLBRef(ps pstate, rem []int) float64 {
	q := s.q
	last := ps.last
	pBefore := ps.prodBefore
	p := pBefore * q.Services[last].Selectivity

	lastOut := math.Inf(1)
	for _, r := range rem {
		if t := q.Transfer[last][r]; t < lastOut {
			lastOut = t
		}
	}
	sl := q.Services[last]
	lb := pBefore * (sl.Cost + sl.Selectivity*lastOut) / sl.ThreadCount()

	shrink := 1.0
	for _, r := range rem {
		shrink *= math.Min(q.Services[r].Selectivity, 1)
	}
	for _, r := range rem {
		svc := q.Services[r]
		out := s.sink[r]
		for _, o := range rem {
			if o == r {
				continue
			}
			if t := q.Transfer[r][o]; t < out {
				out = t
			}
		}
		term := p * shrink * (svc.Cost + svc.Selectivity*out) / svc.ThreadCount()
		if term > lb {
			lb = term
		}
	}
	return lb
}
