// Command dqchoreo executes a plan as the paper's decentralized pipeline on
// the production executor (exec.RunWallClock): one stage per service,
// tuple blocks streamed from stage to stage, every service call sleeping
// its modeled processing and transfer cost. Calls stay in-process or cross
// the executor's HTTP service wire on a loopback listener.
//
// Usage:
//
//	dqchoreo -in solved.json -tuples 400 -unit 100us -transport http
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/model"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqchoreo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqchoreo", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "input instance JSON (required)")
		tuples    = fs.Int("tuples", 400, "input tuples to stream")
		block     = fs.Int("block", 16, "tuples per transfer block")
		unit      = fs.Duration("unit", 100*time.Microsecond, "wall-clock duration of one cost unit")
		transport = fs.String("transport", "inproc", "transport: inproc|http")
		timeout   = fs.Duration("timeout", 5*time.Minute, "run timeout")
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

	plan := inst.Plan
	if plan == nil {
		res, oerr := core.Optimize(q)
		if oerr != nil {
			return oerr
		}
		plan = res.Plan
		fmt.Printf("no stored plan; optimized to %s (cost %g)\n", plan.Render(q), res.Cost)
	}

	cfg := exec.WallClockConfig{Tuples: *tuples, BlockSize: *block, QueueBlocks: exec.DefaultQueueBlocks, UnitDuration: *unit}
	switch *transport {
	case "inproc":
	case "http":
		cfg.HTTP = true
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := exec.RunWallClock(ctx, q, plan, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("plan: %s\n", plan.Render(q))
	fmt.Printf("transport: %s, %d tuples, blocks of %d, %v per cost unit\n", *transport, *tuples, *block, *unit)
	fmt.Printf("makespan: %v\n", rep.Makespan.Round(time.Microsecond))
	fmt.Printf("tuples out: %d\n", rep.TuplesOut)
	fmt.Printf("measured period / tuple: %v\n", rep.MeasuredPeriod.Round(time.Nanosecond))
	fmt.Printf("Eq.(1) predicted period: %v\n", rep.PredictedPeriod.Round(time.Nanosecond))
	fmt.Println("stage  service  in       out      busy")
	for _, st := range rep.Stages {
		name := q.Services[st.Service].Name
		if name == "" {
			name = fmt.Sprintf("WS%d", st.Service)
		}
		fmt.Printf("%-6d %-8s %-8d %-8d %v\n",
			st.Position, name, st.TuplesIn, st.TuplesOut, st.Busy.Round(time.Microsecond))
	}
	return nil
}
