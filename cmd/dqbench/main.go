// Command dqbench runs the evaluation suite: every table and figure of
// exper.All() (documented in internal/exper/README.md), printed as plain
// text or markdown.
//
// Usage:
//
//	dqbench                  # full suite (minutes)
//	dqbench -quick           # CI-sized sweeps (seconds)
//	dqbench -run F3,F7       # selected experiments
//	dqbench -markdown        # markdown tables
//
// Search benchmark baseline (see BENCH_search.json at the repo root):
//
//	dqbench -json BENCH_search.json            # measure + write the baseline
//	dqbench -quick -json new.json \
//	        -compare BENCH_search.json         # CI: fresh run vs committed baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"serviceordering/internal/exper"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqbench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "CI-sized sweeps")
		seed     = fs.Int64("seed", 1, "instance generation seed")
		markdown = fs.Bool("markdown", false, "render markdown tables")
		runList  = fs.String("run", "", "comma-separated experiment ids (default: all)")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonOut  = fs.String("json", "", "run the search benchmark suite and write the report to this path (skips the experiment tables)")
		compare  = fs.String("compare", "", "previous search-bench report to diff against (implies the search benchmark suite); cells slower than -time-regress allows, whose node count rose, or whose cost changed fail the run")
		timeReg  = fs.Float64("time-regress", 1.5, "-compare fails when a cell's ns/op exceeds baseline times this factor (0 disables)")
		regOk    = fs.Bool("regress-ok", false, "report regressions without failing (baseline refreshes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *jsonOut != "" || *compare != "" {
		thr := regressThresholds{time: *timeReg, exact: true}
		if *regOk {
			thr = regressThresholds{}
		}
		return runSearchBenchCmd(*jsonOut, *compare, *quick, thr)
	}

	if *list {
		for _, e := range exper.All() {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := exper.Config{Quick: *quick, Seed: *seed}
	selected := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[strings.ToUpper(id)] = true
		}
	}

	started := time.Now()
	ran := 0
	for _, e := range exper.All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *markdown {
			if err := table.Markdown(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := table.Render(os.Stdout); err != nil {
				return err
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -run=%q", *runList)
	}
	fmt.Printf("ran %d experiments in %v\n", ran, time.Since(started).Round(time.Millisecond))
	return nil
}

// runSearchBenchCmd drives the search benchmark suite: measure, optionally
// diff against a previous report, optionally persist (embedding the
// compared report as the recorded "previous" so the baseline file carries
// its own before/after story). Cells regressing beyond thr fail the run —
// after the report is written, so CI still uploads the artifact that
// explains the failure.
func runSearchBenchCmd(jsonOut, comparePath string, quick bool, thr regressThresholds) error {
	started := time.Now()
	rep, err := runSearchBench(quick, os.Stdout)
	if err != nil {
		return err
	}
	var regressions []string
	if comparePath != "" {
		old, err := loadBenchReport(comparePath)
		if err != nil {
			return err
		}
		if regressions, err = compareBenchReports(old, rep, thr, os.Stdout); err != nil {
			return err
		}
		rep.Previous = old.Entries
		rep.PreviousNote = fmt.Sprintf("baseline from %s (generated %s)", comparePath, old.GeneratedAt)
	}
	if jsonOut != "" {
		if err := writeBenchReport(rep, jsonOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d entries) in %v\n", jsonOut, len(rep.Entries), time.Since(started).Round(time.Millisecond))
	}
	if len(regressions) > 0 {
		fmt.Println("regressed cells:")
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		return fmt.Errorf("%d benchmark cell(s) regressed beyond threshold vs %s (rerun with -regress-ok to accept)",
			len(regressions), comparePath)
	}
	return nil
}
