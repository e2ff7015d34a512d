// Command dqopt optimizes a decentralized-query instance: it reads a JSON
// instance, runs the selected ordering algorithm, and prints (or stores)
// the plan, its bottleneck cost, and search statistics.
//
// Usage:
//
//	dqopt -in query.json                    # branch-and-bound, prove optimality
//	dqopt -in query.json -algo srivastava   # uniform-communication baseline
//	dqopt -in query.json -explain -trace 20 # cost breakdown + search trace
//	dqopt -in query.json -o solved.json     # write the plan back as JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"serviceordering/internal/baseline"
	"serviceordering/internal/core"
	"serviceordering/internal/model"
	"serviceordering/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqopt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqopt", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input instance JSON (required)")
		algo       = fs.String("algo", "bnb", "algorithm: bnb|"+strings.Join(baselineNames(), "|"))
		timeout    = fs.Duration("timeout", 0, "optimization time budget (bnb only, 0 = none)")
		nodeLimit  = fs.Int64("node-limit", 0, "node budget (bnb only, 0 = none)")
		seedGreedy = fs.Bool("seed-greedy", false, "seed bnb with the greedy incumbent")
		explain    = fs.Bool("explain", false, "print the per-stage cost analysis")
		traceLast  = fs.Int("trace", 0, "record the search and print the last N events (bnb only)")
		out        = fs.String("o", "", "write instance+plan JSON here")
		quiet      = fs.Bool("q", false, "print only the plan and cost")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	inst, err := model.LoadInstance(*in)
	if err != nil {
		return err
	}
	q := inst.Query

	var (
		plan    model.Plan
		cost    float64
		details string
		rec     *trace.Recorder
	)
	if *algo == "bnb" {
		opts := core.Options{TimeLimit: *timeout, NodeLimit: *nodeLimit}
		if *seedGreedy {
			greedy, gerr := baseline.GreedyMinEpsilon(q)
			if gerr != nil {
				return gerr
			}
			opts.InitialIncumbent = greedy.Plan
		}
		if *traceLast > 0 {
			rec, err = trace.NewRecorder(*traceLast)
			if err != nil {
				return err
			}
			opts.Tracer = rec
		}
		res, err := core.OptimizeWithOptions(q, opts)
		if err != nil {
			return err
		}
		plan, cost = res.Plan, res.Cost
		details = fmt.Sprintf(
			"optimal: %v\nnodes expanded: %d\npairs tried: %d\nclosures (L2): %d\nv-jumps (L3): %d\nincumbent prunes (L1): %d\nelapsed: %v",
			res.Optimal, res.Stats.NodesExpanded, res.Stats.PairsTried,
			res.Stats.Closures, res.Stats.VJumps, res.Stats.IncumbentPrunes,
			res.Stats.Elapsed.Round(time.Microsecond))
	} else {
		algoFn, ok := baseline.Registry()[*algo]
		if !ok {
			return fmt.Errorf("unknown algorithm %q (have bnb, %s)", *algo, strings.Join(baselineNames(), ", "))
		}
		res, berr := algoFn(q)
		if berr != nil {
			return berr
		}
		plan, cost = res.Plan, res.Cost
		details = fmt.Sprintf("plans evaluated: %d", res.Evaluated)
	}

	fmt.Printf("plan: %s\n", plan.Render(q))
	fmt.Printf("bottleneck cost: %g\n", cost)
	if !*quiet {
		bd := q.CostBreakdown(plan)
		fmt.Printf("bottleneck stage: position %d (service %s)\n", bd.BottleneckPos, q.Services[plan[bd.BottleneckPos]].Name)
		fmt.Println(details)
	}
	if *explain {
		analysis, aerr := q.Explain(plan)
		if aerr != nil {
			return aerr
		}
		fmt.Println()
		if err := analysis.Render(q, os.Stdout); err != nil {
			return err
		}
	}
	if rec != nil {
		fmt.Println()
		if err := rec.Render(os.Stdout); err != nil {
			return err
		}
	}

	if *out != "" {
		inst.Plan = plan
		inst.Cost = cost
		if err := model.SaveInstance(*out, inst); err != nil {
			return err
		}
		fmt.Printf("wrote plan to %s\n", *out)
	}
	return nil
}

func baselineNames() []string {
	names := make([]string, 0, len(baseline.Registry()))
	for name := range baseline.Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
