package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"

	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// maxRegret is dqbench's gate on heuristic-tier plans: at most 5% above
// the exact optimum wherever it is known (cmd/dqbench maxHeuristicRegret).
const maxRegret = 0.05

// costTolerance absorbs floating-point rounding between two evaluations
// of one bottleneck cost.
const costTolerance = 1e-9

// optimizeAnswer is the part of a /v1/optimize answer the checker reads.
type optimizeAnswer struct {
	Plan    model.Plan `json:"plan"`
	Cost    float64    `json:"cost"`
	Optimal bool       `json:"optimal"`
	Tier    string     `json:"tier"`
	Stale   bool       `json:"stale"`
}

// executeAnswer is the part of a /v1/execute answer the checker reads.
type executeAnswer struct {
	Plan      model.Plan      `json:"plan"`
	TuplesOut int64           `json:"tuplesOut"`
	Degraded  json.RawMessage `json:"degraded"`
}

// checkOutcome reports why o is not a correct answer to a request for e,
// or nil when it is. Every request that failed, was refused, degraded or
// answered wrongly fails here.
func checkOutcome(path string, e *entry, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, o.body)
	}
	switch path {
	case "/v1/optimize":
		var a optimizeAnswer
		if err := json.Unmarshal(o.body, &a); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		return checkOptimize(e, a)
	case "/v1/execute":
		var env struct {
			Data executeAnswer `json:"data"`
		}
		if err := json.Unmarshal(o.body, &env); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		return checkExecute(e, env.Data)
	}
	return fmt.Errorf("no checker for %s", path)
}

// checkOptimize accepts an exact-tier answer only at the optimum, and a
// heuristic-tier answer only within maxRegret of it. Either way the plan
// must be feasible and re-evaluate to the reported cost.
func checkOptimize(e *entry, a optimizeAnswer) error {
	if a.Stale {
		return fmt.Errorf("stale answer")
	}
	if err := a.Plan.Validate(e.q); err != nil {
		return fmt.Errorf("infeasible plan %v: %w", a.Plan, err)
	}
	if got := e.q.Cost(a.Plan); !near(got, a.Cost) {
		return fmt.Errorf("plan %v re-evaluates to %v, answer says %v", a.Plan, got, a.Cost)
	}
	switch {
	case a.Tier == planner.TierExact:
		if !a.Optimal || !near(a.Cost, e.optimum) {
			return fmt.Errorf("exact-tier cost %v (optimal=%v), optimum %v", a.Cost, a.Optimal, e.optimum)
		}
	case strings.HasPrefix(a.Tier, "heuristic/"):
		if regret := a.Cost/e.optimum - 1; regret < -costTolerance || regret > maxRegret {
			return fmt.Errorf("%s cost %v has regret %.4f against optimum %v", a.Tier, a.Cost, regret, e.optimum)
		}
	default:
		return fmt.Errorf("unknown tier %q", a.Tier)
	}
	return nil
}

// checkExecute accepts an undegraded execution of a feasible plan whose
// output count equals the survivor count.
func checkExecute(e *entry, a executeAnswer) error {
	if len(a.Degraded) > 0 && string(a.Degraded) != "null" {
		return fmt.Errorf("degraded execution: %s", a.Degraded)
	}
	if err := a.Plan.Validate(e.q); err != nil {
		return fmt.Errorf("infeasible plan %v: %w", a.Plan, err)
	}
	if a.TuplesOut != e.survivors {
		return fmt.Errorf("tuplesOut %d, want %d", a.TuplesOut, e.survivors)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= costTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// tally counts checked answers, keeping the first few failures for the
// report.
type tally struct {
	attempted, failed int64
	examples          []string
}

func (t *tally) add(err error, what string) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, what+": "+err.Error())
	}
}

// checkAll checks the outcomes of the requests idx of list l.
func (t *tally) checkAll(path string, l *requestList, idx []int, outs []outcome, phase string) {
	for i, o := range outs {
		t.add(checkOutcome(path, l.entries[idx[i]], o), fmt.Sprintf("%s request %d (entry %d)", phase, i, idx[i]))
	}
}

// recordedAnswers holds the oracle's answers for defaultSeed: warm-hits
// and execute-adaptive for every corpus entry, cold-search for the first
// recordedCold window requests. A change to the program that alters an
// answer fails the default-seed run even though the oracle shares the
// server's code.
type recordedAnswers struct {
	Seed            int64     `json:"seed"`
	WarmHits        []float64 `json:"warm-hits"`
	ColdSearch      []float64 `json:"cold-search"`
	ExecuteAdaptive []int64   `json:"execute-adaptive"`
}

// recordedCold is the number of cold-search window optima recorded.
const recordedCold = 1024

//go:embed answers.json
var answersJSON []byte

// recordedFor returns the recorded expectation of l's entries for w: the
// entry indices and, per index, the optimum or survivor count.
func recordedFor(w workload, l *requestList, rec *recordedAnswers) (idx []int, want []float64) {
	switch w.name {
	case "warm-hits":
		return seq(0, len(rec.WarmHits)), rec.WarmHits
	case "cold-search":
		n := min(len(rec.ColdSearch), len(l.window))
		return l.window[:n], rec.ColdSearch[:n]
	case "execute-adaptive":
		want = make([]float64, len(rec.ExecuteAdaptive))
		for i, s := range rec.ExecuteAdaptive {
			want[i] = float64(s)
		}
		return seq(0, len(want)), want
	}
	return nil, nil
}

// checkRecorded compares l's oracle answers with the recorded ones when
// seed is defaultSeed, counting each disagreement as a failure.
func (t *tally) checkRecorded(w workload, l *requestList, seed int64) error {
	if seed != defaultSeed {
		return nil
	}
	var rec recordedAnswers
	if err := json.Unmarshal(answersJSON, &rec); err != nil {
		return fmt.Errorf("answers.json: %w", err)
	}
	idx, want := recordedFor(w, l, &rec)
	if len(idx) == 0 {
		return fmt.Errorf("answers.json records nothing for %s", w.name)
	}
	for i, k := range idx {
		var err error
		if k >= len(l.entries) {
			err = fmt.Errorf("no such entry")
		} else if got := expected(w, l.entries[k]); !near(got, want[i]) {
			err = fmt.Errorf("oracle answer %v, recorded %v", got, want[i])
		}
		t.add(err, fmt.Sprintf("recorded answer %d (entry %d)", i, k))
	}
	return nil
}

// expected is the oracle's answer for e as one number: the survivor
// count of an execute request, the optimum of an optimize request.
func expected(w workload, e *entry) float64 {
	if w.path == "/v1/execute" {
		return float64(e.survivors)
	}
	return e.optimum
}

// writeAnswers records the oracle answers of defaultSeed to path.
func writeAnswers(path string) error {
	rec := recordedAnswers{Seed: defaultSeed}
	for _, w := range workloads {
		l, err := buildList(w, defaultSeed, recordedCold)
		if err != nil {
			return err
		}
		switch w.name {
		case "warm-hits":
			for _, e := range l.entries {
				rec.WarmHits = append(rec.WarmHits, e.optimum)
			}
		case "cold-search":
			for _, k := range l.window[:recordedCold] {
				rec.ColdSearch = append(rec.ColdSearch, l.entries[k].optimum)
			}
		case "execute-adaptive":
			for _, e := range l.entries {
				rec.ExecuteAdaptive = append(rec.ExecuteAdaptive, e.survivors)
			}
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
