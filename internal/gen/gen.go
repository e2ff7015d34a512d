// Package gen generates random problem instances for the experiment
// suite. Generation is fully deterministic given Params (a seed plus
// distribution parameters), so every table and figure of the experiment
// suite (exper.All()) is reproducible bit-for-bit.
//
// Service populations follow the paper's model: per-tuple costs and
// selectivities drawn uniformly from configurable ranges, with an optional
// fraction of proliferative services (selectivity > 1). Transfer matrices
// come from four host topologies:
//
//   - Uniform: one global transfer cost (the centralized / intermediary
//     setting in which Srivastava et al.'s polynomial algorithm is
//     optimal);
//   - Random: independent uniform costs with a controllable
//     max/min heterogeneity ratio (the decentralized setting the paper
//     targets);
//   - Euclidean: hosts on a plane, cost proportional to distance
//     (symmetric, metric);
//   - Clustered: hosts grouped into sites with cheap intra-site and
//     expensive inter-site links (a WAN of data centers).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"serviceordering/internal/model"
)

// Topology selects how the transfer-cost matrix is generated.
type Topology int

const (
	// TopologyRandom draws each directed transfer cost independently
	// from [TransferBase, TransferBase*Heterogeneity].
	TopologyRandom Topology = iota

	// TopologyUniform sets every transfer cost to TransferBase.
	TopologyUniform

	// TopologyEuclidean places hosts uniformly in the unit square and
	// sets cost = TransferBase * distance.
	TopologyEuclidean

	// TopologyClustered groups hosts into Clusters sites: transfers cost
	// TransferBase within a site and TransferBase*Heterogeneity across
	// sites.
	TopologyClustered
)

// String returns the topology name used in experiment tables.
func (t Topology) String() string {
	switch t {
	case TopologyRandom:
		return "random"
	case TopologyUniform:
		return "uniform"
	case TopologyEuclidean:
		return "euclidean"
	case TopologyClustered:
		return "clustered"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Params describes one instance distribution.
type Params struct {
	// N is the number of services; Seed drives all randomness.
	N    int
	Seed int64

	// CostMin/CostMax bound the uniform per-tuple processing cost.
	CostMin, CostMax float64

	// SelMin/SelMax bound the uniform selectivity of filter services.
	SelMin, SelMax float64

	// SelZipfSkew, when positive, skews filter selectivities toward
	// SelMin with a Zipf-like power law: the uniform draw u in [0, 1) is
	// replaced by u^SelZipfSkew before mapping onto [SelMin, SelMax], so
	// a few services stay weak while most become highly selective —
	// the regime where ordering matters most. Zero keeps the uniform
	// draw (and byte-identical instances for existing seeds).
	SelZipfSkew float64

	// ProliferativeFraction of services instead draw selectivity from
	// (1, ProliferativeMax].
	ProliferativeFraction float64
	ProliferativeMax      float64

	// MultiThreadFraction of services receive 2..MaxThreads threads
	// (the paper's multi-threaded relaxation); the rest stay
	// single-threaded. MaxThreads defaults to 4 when zero.
	MultiThreadFraction float64
	MaxThreads          int

	// Topology and its parameters.
	Topology      Topology
	TransferBase  float64
	Heterogeneity float64 // max/min transfer ratio (Random, Clustered)
	Clusters      int     // Clustered only

	// WithSource/WithSink add the optional source/sink transfer stages.
	WithSource, WithSink bool

	// PrecedenceEdges adds this many random acyclic constraint edges.
	PrecedenceEdges int
}

// Default returns the experiment suite's base distribution: filters with
// selectivity in [0.1, 1], costs in [0.05, 2], random topology with
// heterogeneity 8.
func Default(n int, seed int64) Params {
	return Params{
		N:                n,
		Seed:             seed,
		CostMin:          0.05,
		CostMax:          2,
		SelMin:           0.1,
		SelMax:           1,
		ProliferativeMax: 2,
		Topology:         TopologyRandom,
		TransferBase:     0.1,
		Heterogeneity:    8,
		Clusters:         3,
	}
}

func (p Params) validate() error {
	if p.N <= 0 {
		return fmt.Errorf("gen: N = %d, want > 0", p.N)
	}
	if p.CostMin < 0 || p.CostMax < p.CostMin {
		return fmt.Errorf("gen: cost range [%v, %v] invalid", p.CostMin, p.CostMax)
	}
	if p.SelMin < 0 || p.SelMax < p.SelMin {
		return fmt.Errorf("gen: selectivity range [%v, %v] invalid", p.SelMin, p.SelMax)
	}
	if p.SelZipfSkew < 0 {
		return fmt.Errorf("gen: SelZipfSkew = %v, want >= 0", p.SelZipfSkew)
	}
	if p.ProliferativeFraction < 0 || p.ProliferativeFraction > 1 {
		return fmt.Errorf("gen: proliferative fraction %v outside [0,1]", p.ProliferativeFraction)
	}
	if p.ProliferativeFraction > 0 && p.ProliferativeMax <= 1 {
		return fmt.Errorf("gen: ProliferativeMax %v must exceed 1", p.ProliferativeMax)
	}
	if p.MultiThreadFraction < 0 || p.MultiThreadFraction > 1 {
		return fmt.Errorf("gen: multi-thread fraction %v outside [0,1]", p.MultiThreadFraction)
	}
	if p.MaxThreads < 0 {
		return fmt.Errorf("gen: MaxThreads = %d, want >= 0", p.MaxThreads)
	}
	if p.TransferBase < 0 {
		return fmt.Errorf("gen: TransferBase %v must be >= 0", p.TransferBase)
	}
	if p.Heterogeneity < 1 {
		return fmt.Errorf("gen: Heterogeneity %v must be >= 1", p.Heterogeneity)
	}
	if p.Topology == TopologyClustered && p.Clusters <= 0 {
		return fmt.Errorf("gen: Clusters = %d, want > 0", p.Clusters)
	}
	if p.PrecedenceEdges < 0 {
		return fmt.Errorf("gen: PrecedenceEdges = %d, want >= 0", p.PrecedenceEdges)
	}
	return nil
}

// Generate builds the instance. The same Params always yield the same
// query.
func (p Params) Generate() (*model.Query, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))

	services := make([]model.Service, p.N)
	for i := range services {
		// Degenerate ranges skip the draw entirely, exactly like
		// uniform(), so existing seeds keep their byte-identical streams.
		sigma := p.SelMin
		if p.SelMax > p.SelMin {
			u := rng.Float64()
			if p.SelZipfSkew > 0 {
				u = math.Pow(u, p.SelZipfSkew)
			}
			sigma = p.SelMin + u*(p.SelMax-p.SelMin)
		}
		if p.ProliferativeFraction > 0 && rng.Float64() < p.ProliferativeFraction {
			sigma = uniform(rng, 1, p.ProliferativeMax)
		}
		threads := 0
		if p.MultiThreadFraction > 0 && rng.Float64() < p.MultiThreadFraction {
			maxT := p.MaxThreads
			if maxT < 2 {
				maxT = 4
			}
			threads = 2 + rng.Intn(maxT-1)
		}
		services[i] = model.Service{
			Name:        fmt.Sprintf("ws%d", i),
			Cost:        uniform(rng, p.CostMin, p.CostMax),
			Selectivity: sigma,
			Threads:     threads,
		}
	}

	transfer, err := p.transferMatrix(rng)
	if err != nil {
		return nil, err
	}
	q := &model.Query{Services: services, Transfer: transfer}

	if p.WithSource {
		q.SourceTransfer = make([]float64, p.N)
		for i := range q.SourceTransfer {
			q.SourceTransfer[i] = uniform(rng, p.TransferBase, p.TransferBase*p.Heterogeneity)
		}
	}
	if p.WithSink {
		q.SinkTransfer = make([]float64, p.N)
		for i := range q.SinkTransfer {
			q.SinkTransfer[i] = uniform(rng, p.TransferBase, p.TransferBase*p.Heterogeneity)
		}
	}
	if p.PrecedenceEdges > 0 && p.N >= 2 {
		// All edges point forward along one hidden random order, so the
		// relation is acyclic as a whole (a per-edge order would let two
		// edges drawn under different orders close a cycle).
		perm := rng.Perm(p.N)
		for e := 0; e < p.PrecedenceEdges; e++ {
			i := rng.Intn(p.N - 1)
			j := i + 1 + rng.Intn(p.N-i-1)
			q.Precedence = append(q.Precedence, [2]int{perm[i], perm[j]})
		}
	}

	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid query: %w", err)
	}
	return q, nil
}

func (p Params) transferMatrix(rng *rand.Rand) ([][]float64, error) {
	t := make([][]float64, p.N)
	for i := range t {
		t[i] = make([]float64, p.N)
	}
	switch p.Topology {
	case TopologyUniform:
		for i := range t {
			for j := range t[i] {
				if i != j {
					t[i][j] = p.TransferBase
				}
			}
		}
	case TopologyRandom:
		for i := range t {
			for j := range t[i] {
				if i != j {
					t[i][j] = uniform(rng, p.TransferBase, p.TransferBase*p.Heterogeneity)
				}
			}
		}
	case TopologyEuclidean:
		xs := make([]float64, p.N)
		ys := make([]float64, p.N)
		for i := range xs {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
		for i := range t {
			for j := range t[i] {
				if i != j {
					d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
					t[i][j] = p.TransferBase * d
				}
			}
		}
	case TopologyClustered:
		site := make([]int, p.N)
		for i := range site {
			site[i] = rng.Intn(p.Clusters)
		}
		for i := range t {
			for j := range t[i] {
				if i == j {
					continue
				}
				if site[i] == site[j] {
					t[i][j] = p.TransferBase
				} else {
					t[i][j] = p.TransferBase * p.Heterogeneity
				}
			}
		}
	default:
		return nil, fmt.Errorf("gen: unknown topology %d", p.Topology)
	}
	return t, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}
