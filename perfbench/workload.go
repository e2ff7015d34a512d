package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// workload is one traffic mix. Every run of a workload sends a fixed
// request list generated from the seed: the window's length is
// seconds × rate requests, so two commits always do the same work and a
// faster one simply finishes sooner.
type workload struct {
	name string
	path string // the dqserve endpoint every request goes to

	// conns is the number of closed-loop callers, each on its own
	// keep-alive connection, each sending its next request only after the
	// previous answer arrived.
	conns int

	// rate is the nominal requests per second of --seconds: the window
	// list holds seconds × rate requests.
	rate int

	// traceRequests caps the window prefix the traced replay covers, so a
	// traced run stays within its time budget on the slow workloads.
	traceRequests int

	// serverArgs are the dqserve flags beyond -addr. Admission runs on
	// every workload so classify and acquire stay on the measured path.
	serverArgs []string
}

// The three workloads. BENCHMARK.json and README.md give the reason for
// each; the constants below size them.
var workloads = []workload{
	{
		name: "warm-hits", path: "/v1/optimize", conns: 2,
		rate: 9000, traceRequests: 20000,
		serverArgs: []string{"-admit-max-concurrent", "2"},
	},
	{
		name: "cold-search", path: "/v1/optimize", conns: 2,
		rate: 1400, traceRequests: 3000,
		serverArgs: []string{"-admit-max-concurrent", "2"},
	},
	{
		name: "execute-adaptive", path: "/v1/execute", conns: 1,
		rate: 1200, traceRequests: 2500,
		serverArgs: []string{"-admit-max-concurrent", "2", "-adaptive", "-exec-backend", "mock"},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// defaultSeed is the seed whose oracle answers are recorded in
	// answers.json.
	defaultSeed = 1

	// warmCorpus is the number of distinct warm-hits queries: well inside
	// the 4096-entry plan cache and the 8192-entry query memo, and large
	// enough that priming them takes far longer than process start-up
	// jitter.
	warmCorpus = 2048

	// warmZipfS skews warm-hits draws toward the head of the corpus.
	warmZipfS = 1.1

	// coldPrime is the number of first-sight queries cold-search primes
	// with: past the plan cache's capacity, so every window request
	// evicts an entry.
	coldPrime = planner.DefaultCacheCapacity + 256

	// execCorpus is the number of distinct execute-adaptive queries,
	// execPrime the number of priming requests (each entry once, then
	// random draws) and execTuples the tuple count every execute request
	// streams.
	execCorpus = 64
	execPrime  = 512
	execTuples = 2048

	// mockSeed is dqserve's -exec-seed default: the seed of the mock
	// backend whose survivor counts the execute answers are checked
	// against.
	mockSeed = 1

	// nodeCap bounds the exact search of every optimize query: a
	// generated query whose sequential search expands more nodes is
	// skipped. Without the cap one proliferative instance in a few
	// hundred runs for hundreds of milliseconds, and a single such request
	// would set a run's length.
	nodeCap = 20000

	// maxProliferativeN is the largest proliferative query generated. At
	// n=13-14 a quarter of first-sight proliferative instances ran past a
	// 2 s exact search (one took 106 s), far beyond nodeCap's reach.
	maxProliferativeN = 12
)

// families are the five instance families of the search benchmark suite
// (internal/exper.SearchBenchFamilies): the same structural features on
// gen.Default's selectivity range, so first-sight searches stay at
// serving latency.
var families = []string{"plain", "sink-source", "precedence", "proliferative", "threaded"}

// familyParams returns the generator parameters of one family instance.
func familyParams(family string, n int, seed int64) (gen.Params, error) {
	p := gen.Default(n, seed)
	switch family {
	case "plain":
	case "sink-source":
		p.WithSource, p.WithSink = true, true
	case "precedence":
		p.PrecedenceEdges = 3
	case "proliferative":
		p.ProliferativeFraction = 0.3
	case "threaded":
		p.MultiThreadFraction = 0.4
	default:
		return p, fmt.Errorf("unknown family %q", family)
	}
	return p, nil
}

// entry is one distinct query of a request list, with its request body
// and the answer the oracle expects.
type entry struct {
	family string
	n      int
	q      *model.Query
	body   []byte

	// optimum is the exact optimal cost (optimize workloads); survivors
	// the tuples that pass every service of the query on the mock backend
	// (execute-adaptive).
	optimum   float64
	survivors int64
}

// requestList is a workload's generated input: the distinct entries and,
// as indices into them, the priming requests sent during set-up and the
// window requests that are measured.
type requestList struct {
	entries []*entry
	prime   []int
	window  []int
	draws   draws // the optimize workloads' candidate counts
}

// windowLen is the length of a run's window list.
func (w workload) windowLen(seconds int) int { return seconds * w.rate }

// buildList generates the request list of w for one seed, with a window
// of windowLen requests, and computes every entry's expected answer.
func buildList(w workload, seed int64, windowLen int) (*requestList, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	l := &requestList{}
	switch w.name {
	case "warm-hits":
		entries, d, err := optimizeEntries(rng, warmCorpus, 10, 12)
		if err != nil {
			return nil, err
		}
		l.entries, l.draws = entries, d
		l.prime = seq(0, warmCorpus)
		z := rand.NewZipf(rng, warmZipfS, 1, warmCorpus-1)
		l.window = make([]int, windowLen)
		for i := range l.window {
			l.window[i] = int(z.Uint64())
		}
	case "cold-search":
		entries, d, err := optimizeEntries(rng, coldPrime+windowLen, 10, 17)
		if err != nil {
			return nil, err
		}
		l.entries, l.draws = entries, d
		l.prime = seq(0, coldPrime)
		l.window = seq(coldPrime, coldPrime+windowLen)
	case "execute-adaptive":
		entries, err := executeEntries(rng, execCorpus)
		if err != nil {
			return nil, err
		}
		l.entries = entries
		l.prime = seq(0, execCorpus)
		for len(l.prime) < execPrime {
			l.prime = append(l.prime, rng.Intn(execCorpus))
		}
		l.window = make([]int, windowLen)
		for i := range l.window {
			l.window[i] = rng.Intn(execCorpus)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	return l, nil
}

func seq(from, to int) []int {
	s := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// optimizeEntries draws count distinct optimize queries with n in
// [lo, hi] across the five families, solving each exactly. Candidates
// are drawn in a fixed order and solved in parallel batches; a candidate
// whose search exceeds nodeCap, or whose canonical signature an earlier
// entry already has, is skipped, so the accepted list depends only on the
// seed and every entry is first-sight for the server's plan cache.
func optimizeEntries(rng *rand.Rand, count, lo, hi int) ([]*entry, draws, error) {
	const batch = 256
	out := make([]*entry, 0, count)
	d := make(draws)
	canon := planner.New(planner.Config{})
	seen := make(map[planner.Signature]bool, count)
	for len(out) < count {
		cands := make([]*entry, batch)
		for i := range cands {
			family := families[rng.Intn(len(families))]
			top := hi
			if family == "proliferative" && top > maxProliferativeN {
				top = maxProliferativeN
			}
			n := lo + rng.Intn(top-lo+1)
			p, err := familyParams(family, n, rng.Int63())
			if err != nil {
				return nil, nil, err
			}
			q, err := p.Generate()
			if err != nil {
				return nil, nil, err
			}
			cands[i] = &entry{family: family, n: n, q: q}
		}
		ok := make([]bool, batch)
		errs := make([]error, batch)
		sigs := make([]planner.Signature, batch)
		parallel(batch, func(i int) {
			sigs[i], _ = canon.SignatureFor(cands[i].q)
			ok[i], errs[i] = cands[i].solve()
		})
		for i, e := range cands {
			if len(out) == count {
				break
			}
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			c := d.at(e.family, e.n)
			c.drawn++
			switch {
			case !ok[i]:
				c.capped++
			case seen[sigs[i]]:
				c.repeated++
			default:
				seen[sigs[i]] = true
				body, err := json.Marshal(&model.Instance{Query: e.q})
				if err != nil {
					return nil, nil, err
				}
				e.body = body
				out = append(out, e)
			}
		}
	}
	return out, d, nil
}

// draws counts the optimize candidates drawn per family and n, and how
// many of them were skipped: capped, because the oracle's search passed
// nodeCap, or repeated, because an earlier entry had the same canonical
// signature.
type draws map[string]*drawCount

type drawCount struct{ drawn, capped, repeated int }

func (d draws) at(family string, n int) *drawCount {
	k := fmt.Sprintf("%s n=%d", family, n)
	if d[k] == nil {
		d[k] = &drawCount{}
	}
	return d[k]
}

// String reports the skipped share overall and every family and n with a
// capped candidate.
func (d draws) String() string {
	var all drawCount
	var capped []string
	for k, c := range d {
		all.drawn += c.drawn
		all.capped += c.capped
		all.repeated += c.repeated
		if c.capped > 0 {
			capped = append(capped, fmt.Sprintf("%s %d/%d", k, c.capped, c.drawn))
		}
	}
	sort.Strings(capped)
	s := fmt.Sprintf("%d candidates drawn, %d (%.2f%%) skipped past the %d-node cap, %d (%.2f%%) skipped as repeated signatures",
		all.drawn, all.capped, 100*float64(all.capped)/float64(max(all.drawn, 1)), nodeCap,
		all.repeated, 100*float64(all.repeated)/float64(max(all.drawn, 1)))
	if len(capped) > 0 {
		s += "; capped per family and n: " + strings.Join(capped, ", ")
	}
	return s
}

// solve computes e's exact optimum under the node cap, reporting false
// when the search did not finish within it.
func (e *entry) solve() (bool, error) {
	res, err := core.OptimizeWithOptions(e.q, core.Options{NodeLimit: nodeCap})
	if err != nil {
		return false, err
	}
	if !res.Optimal {
		return false, nil
	}
	e.optimum = res.Cost
	return true, nil
}

// executeRequest is the body of a /v1/execute request.
type executeRequest struct {
	Query  *model.Query `json:"query"`
	Tuples int          `json:"tuples"`
}

// executeEntries draws count small queries (n in [6, 8]); gen names
// services ws0, ws1, ... so every query shares service names, and the
// adaptive registry's statistics for one query reprice the others.
func executeEntries(rng *rand.Rand, count int) ([]*entry, error) {
	out := make([]*entry, count)
	for i := range out {
		n := 6 + rng.Intn(3)
		q, err := gen.Default(n, rng.Int63()).Generate()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(executeRequest{Query: q, Tuples: execTuples})
		if err != nil {
			return nil, err
		}
		surv, err := survivors(q, execTuples)
		if err != nil {
			return nil, err
		}
		out[i] = &entry{family: "plain", n: n, q: q, body: body, survivors: surv}
	}
	return out, nil
}

// survivors counts the tuples of exec.Tuples(tuples) that pass every
// service of q on dqserve's mock backend. The backend derives each
// service from its name as a filter, and a filter keeps a tuple by a hash
// of its identity alone, so the count does not depend on the plan.
func survivors(q *model.Query, tuples int) (int64, error) {
	mb := exec.NewMockBackend(mockSeed)
	mb.DeriveUnknown = true
	cur := exec.Tuples(tuples)
	for _, s := range q.Services {
		res, err := mb.Call(context.Background(), s.Name, cur)
		if err != nil {
			return 0, err
		}
		cur = res.Tuples
	}
	return int64(len(cur)), nil
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				f(k)
			}
		}()
	}
	wg.Wait()
}
