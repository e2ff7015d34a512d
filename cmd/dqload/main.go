// Command dqload is the serving-path load generator: it hammers a dqserve
// instance (self-hosted in-process by default, or any -target URL) with
// zipf-skewed query workloads and reports throughput, latency quantiles,
// allocations per request, and cache hit rates — with every sampled
// response cross-checked against independently computed optima, so a
// faster-but-wrong serving path can never pass.
//
// Two modes:
//
//	dqload -conc 16 -duration 5s            ad-hoc closed-loop run
//	dqload -open -rate 2000 -duration 5s    ad-hoc open-loop run (latency
//	                                        includes queueing delay)
//
//	dqload -json BENCH_serve.json           measure + write the baseline
//	dqload -quick -json new.json \
//	       -compare BENCH_serve.json        CI: fresh run vs committed
//	                                        baseline; regressing cells
//	                                        fail the run
//
// The tracked suite (see BENCH_serve.json at the repo root) runs eight
// cells — warm-single, warm-batch32, cold-single, drift-replan (the
// adaptive replanning loop: a mid-run oracle perturbation that served
// plans must recover from, run standalone with -drift), overload-shed
// (admission control + stale-serve at 4x the calibrated saturation rate,
// run standalone with -overload), execute-loop (the optimize -> execute ->
// observe -> replan loop through POST /v1/execute, recovering from a backend
// drift on execution feedback alone, run standalone with -execute),
// exec-chaos (the same path under a deterministic fault-injection plan:
// typed degrades, breaker transitions, bounded p99, no goroutine leaks,
// run standalone with -chaos), and restart-warmboot (plan-cache snapshot
// round-trip, full suite only, run standalone with -restart) — each
// against a fresh self-hosted server, spoken to over dqserve's /v1
// surface. The committed baseline embeds its predecessor as the
// "previous" block.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqload", flag.ContinueOnError)
	var (
		// Suite / baseline flags (mirroring dqbench).
		jsonOut  = fs.String("json", "", "run the load-test suite and write the report to this path")
		compare  = fs.String("compare", "", "previous serve-bench report to diff against (implies the suite); cells regressing beyond the thresholds fail the run")
		quick    = fs.Bool("quick", false, "CI-sized measurement windows")
		rpsReg   = fs.Float64("rps-regress", 1.75, "-compare fails when a cell's req/s falls below baseline divided by this factor (0 disables)")
		p99Reg   = fs.Float64("p99-regress", 3, "-compare fails when a cell's p99 exceeds baseline times this factor (0 disables)")
		allocReg = fs.Float64("alloc-regress", 1.3, "-compare fails when a cell's allocs/op exceeds baseline times this factor (0 disables)")
		regOk    = fs.Bool("regress-ok", false, "report regressions without failing (baseline refreshes)")

		// Workload flags (ad-hoc mode; -duration also overrides suite cells).
		mode     = fs.String("mode", "warm", "workload mode: warm (zipf over a pre-warmed corpus) or cold (every request first-sight)")
		batch    = fs.Int("batch", 0, "instances per request via /v1/optimize/batch (0 = single /v1/optimize)")
		conc     = fs.Int("conc", 8, "closed-loop worker count")
		corpus   = fs.Int("corpus", 64, "distinct corpus queries (warm) or unique-query pool (cold)")
		nSvc     = fs.Int("n", 12, "base service count per query")
		zipfS    = fs.Float64("zipf", 1.2, "zipf skew over corpus ranks (values <= 1 mean uniform)")
		duration = fs.Duration("duration", 0, "measurement window per cell (0 = mode default)")
		open     = fs.Bool("open", false, "open-loop arrivals at -rate instead of closed-loop workers")
		rate     = fs.Float64("rate", 1000, "open-loop arrivals per second")
		target   = fs.String("target", "", "external dqserve base URL (default: self-host the handler in-process)")
		drift    = fs.Bool("drift", false, "run the adaptive-replanning drift scenario: perturb the oracle mid-run and assert served plans re-converge to the new optima")
		overload = fs.Bool("overload", false, "run the overload-survival scenario: drive an admission-controlled server past saturation and assert every shed is a typed 429 and every admitted response is correct")
		restart  = fs.Bool("restart", false, "run the restart scenario: snapshot a primed plan cache, warm-boot a fresh server from it, and assert a >= 90% first-window hit rate")
		execute  = fs.Bool("execute", false, "run the execute scenario: drive POST /v1/execute end to end — optimize, stream tuples through the fault-tolerant executor, observe, and re-converge from a mid-run backend drift on execution feedback alone")
		chaos    = fs.Bool("chaos", false, "run the chaos scenario: POST /v1/execute through a deterministic fault-injection plan and assert typed degrades, breaker transitions, bounded p99, and no goroutine leaks")
		failover = fs.Bool("failover", false, "run the failover scenario: hedged calls against a spiking service, plan-aware failover through a victim blackout (every non-degraded response the exact full answer), and reliability-priced replanning demoting the flaky service")
		fleetRun = fs.Bool("fleet", false, "run the fleet scenario: three consistent-hash-sharded dqserve peers (self-hosted, or >= 2 comma-separated -target URLs), measuring aggregate throughput, cross-node cache hits, and drift convergence with the observer and replanner on different nodes")
		quickAd  = fs.Bool("drift-quick", false, "with -drift/-overload/-restart/-execute/-chaos/-failover: the CI-sized scenario (smaller budgets and windows)")
		seed     = fs.Int64("seed", 1, "workload generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := loadOpts{
		seed:     *seed,
		target:   *target,
		duration: *duration,
		open:     *open,
		rate:     *rate,
		verbose:  os.Stdout,
	}

	if *jsonOut != "" || *compare != "" {
		thr := serveThresholds{rps: *rpsReg, p99: *p99Reg, allocs: *allocReg}
		if *regOk {
			thr = serveThresholds{}
		}
		return runServeBenchCmd(*jsonOut, *compare, *quick, thr, opts)
	}

	if *drift {
		res, err := runDriftScenario(defaultDriftSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("drift scenario: recovered in %d observations (%d generations, %d replans)\n",
			res.obsToConverge, res.generations, res.replans)
		fmt.Printf("  drift threshold  %.3f (regret budget 1%%, robust-derived)\n", res.driftDelta)
		fmt.Printf("  true optimum     %.6g -> %.6g after perturbation\n", res.preDriftCost, res.postDriftCost)
		fmt.Printf("  stale plan       %.2f%% regret under the new truth; final served regret %.4f%%\n",
			100*res.oldPlanRegret, 100*res.finalRegret)
		fmt.Printf("  traffic          %d requests, %.0f req/s, p50 %.1fµs p99 %.1fµs, %d verified\n",
			res.entry.Requests, res.entry.ReqPerSec, res.entry.P50Micros, res.entry.P99Micros, res.entry.Verified)
		return nil
	}

	if *overload {
		res, err := runOverloadScenario(defaultOverloadSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("overload scenario: survived %.0f req/s offered (%.0f admitted/s)\n",
			res.offeredRate, res.entry.ReqPerSec)
		fmt.Printf("  admitted     %d requests, p50 %.1fµs p99 %.1fµs, %d oracle-verified\n",
			res.admitted, res.entry.P50Micros, res.entry.P99Micros, res.entry.Verified)
		fmt.Printf("  shed         %d requests (%.1f%%), every one a 429 with Retry-After and a typed reason\n",
			res.sheds, 100*res.entry.ShedRate)
		fmt.Printf("  degraded     %d stale-served responses (exact previous-generation optima), %d background replans\n",
			res.staleServed, res.bgReplans)
		return nil
	}

	if *restart {
		res, err := runRestartScenario(defaultRestartSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("restart scenario: warm boot from a %d-byte snapshot\n", res.snapshotBytes)
		fmt.Printf("  first window  %.1f%% hit rate (threshold 90%%), every response oracle-verified\n",
			100*res.firstWindowHitRate)
		fmt.Printf("  steady state  %d requests, %.0f req/s, p50 %.1fµs p99 %.1fµs\n",
			res.entry.Requests, res.entry.ReqPerSec, res.entry.P50Micros, res.entry.P99Micros)
		return nil
	}

	if *execute {
		res, err := runExecuteScenario(defaultExecSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("execute scenario: re-converged in %d executions (%d generations, %d replans)\n",
			res.execsToConv, res.generations, res.replans)
		fmt.Printf("  true optimum  %.6g -> %.6g after the backend drift\n", res.preDriftCost, res.postDriftCost)
		fmt.Printf("  stale plan    %.2f%% regret under the new truth, recovered on execution feedback alone\n",
			100*res.oldPlanRegret)
		fmt.Printf("  traffic       %d requests (%d executions server-side), %.0f req/s, p50 %.1fµs p99 %.1fµs, %d verified\n",
			res.entry.Requests, res.executions, res.entry.ReqPerSec, res.entry.P50Micros, res.entry.P99Micros, res.entry.Verified)
		return nil
	}

	if *chaos {
		res, err := runChaosScenario(defaultChaosSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("chaos scenario: %d requests through the fault plan, every one a 200\n", res.entry.Requests)
		fmt.Printf("  outcomes   %d complete, %d degraded (typed: %v)\n", res.complete, res.degraded, res.reasons)
		fmt.Printf("  injected   %d errors, %d blackout failures, %d spikes, %d trickles over %d backend calls\n",
			res.injected.Errors, res.injected.Blackouts, res.injected.Spikes, res.injected.Trickles, res.injected.Calls)
		fmt.Printf("  survived   %d retries, %d breaker opens (surfaced in /v1/healthz), p50 %.1fµs p99 %.1fµs, no goroutine leaks\n",
			res.retries, res.breakerOpens, res.entry.P50Micros, res.entry.P99Micros)
		return nil
	}

	if *fleetRun {
		res, err := runFleetScenario(defaultFleetSpec(*quickAd), opts, 0)
		if err != nil {
			return err
		}
		fmt.Printf("fleet scenario: %d peers, aggregate %.0f req/s (single-node reference %.0f, %.1fx)\n",
			len(res.perPeerRps), res.aggregate, res.warmRef, res.aggregate/res.warmRef)
		for i, rps := range res.perPeerRps {
			fmt.Printf("  peer %d      %9.0f req/s\n", i, rps)
		}
		fmt.Printf("  cross-node  %9.1f%% of requests answered from a replicated or forwarded-warm entry\n", 100*res.hitRate)
		fmt.Printf("  traffic     %d requests, p50 %.1fµs p99 %.1fµs, %d oracle-verified\n",
			res.entry.Requests, res.entry.P50Micros, res.entry.P99Micros, res.entry.Verified)
		if res.driftEntry.Requests > 0 {
			fmt.Printf("  drift       converged in %d observations at %.4f%% regret; observer %s gossiped %d anchors (%d applied remotely), %d re-solves on other nodes, generation %d fleet-wide\n",
				res.obsToConverge, 100*res.finalRegret, res.observer, res.gossipSent, res.gossipApplied, res.remoteSolves, res.generations)
			fmt.Printf("  drift cell  %9.0f req/s, p50 %.1fµs p99 %.1fµs, %d verified\n",
				res.driftEntry.ReqPerSec, res.driftEntry.P50Micros, res.driftEntry.P99Micros, res.driftEntry.Verified)
		}
		return nil
	}

	if *failover {
		res, err := runFailoverScenario(defaultFailoverSpec(*quickAd), opts)
		if err != nil {
			return err
		}
		fmt.Printf("failover scenario: %d requests through the fault plan, every non-degraded answer exact\n", res.entry.Requests)
		fmt.Printf("  hedging    %d launched / %d won against %s's spikes (plus %d in the determinism replay, decisions identical)\n",
			res.hedgesLaunched, res.hedgesWon, res.spiky, res.detHedges)
		fmt.Printf("  failover   %d attempted at %s, %d rescued (%.0f%%), %d infeasible; %d complete, %d degraded\n",
			res.attempted, res.victim, res.rescued, 100*float64(res.rescued)/float64(res.attempted), res.infeasible, res.complete, res.degraded)
		fmt.Printf("  injected   %d errors, %d blackout failures, %d spikes over %d backend calls\n",
			res.injected.Errors, res.injected.Blackouts, res.injected.Spikes, res.injected.Calls)
		fmt.Printf("  drift      %s demoted %d -> %d in %d executions (%d generations), matching the oracle on the registry overlay\n",
			res.victim, res.victimPosBefore, res.victimPosAfter, res.driftExecs, res.generations)
		fmt.Printf("  traffic    p50 %.1fµs p99 %.1fµs, %d verified, no goroutine leaks\n",
			res.entry.P50Micros, res.entry.P99Micros, res.entry.Verified)
		return nil
	}

	// Ad-hoc single cell.
	spec := cellSpec{
		Name:   fmt.Sprintf("adhoc-%s", *mode),
		Mode:   *mode,
		Batch:  *batch,
		Conc:   *conc,
		Corpus: *corpus,
		N:      *nSvc,
		Zipf:   *zipfS,
	}
	if spec.Mode != "warm" && spec.Mode != "cold" {
		return fmt.Errorf("-mode %q: want warm or cold", spec.Mode)
	}
	if opts.duration == 0 {
		opts.duration = 3 * time.Second
	}
	entry, err := runCell(spec, opts)
	if err != nil {
		return err
	}
	loop := "closed-loop"
	if *open {
		loop = fmt.Sprintf("open-loop %.0f/s offered", *rate)
	}
	fmt.Printf("%s %s: %d requests in %v\n", spec.Name, loop, entry.Requests, opts.duration)
	fmt.Printf("  throughput  %10.0f req/s\n", entry.ReqPerSec)
	fmt.Printf("  latency     p50 %.1fµs  p99 %.1fµs\n", entry.P50Micros, entry.P99Micros)
	if *open {
		fmt.Printf("  queue wait  p50 %.1fµs  p99 %.1fµs   (arrival -> dispatch: backpressure once the server falls behind)\n",
			entry.QueueWaitP50Micros, entry.QueueWaitP99Micros)
		fmt.Printf("  service     p50 %.1fµs  p99 %.1fµs   (dispatch -> response)\n",
			entry.ServiceP50Micros, entry.ServiceP99Micros)
	}
	if entry.AllocsPerOp > 0 {
		fmt.Printf("  allocs/op   %10.1f (whole process: client + server)\n", entry.AllocsPerOp)
	}
	fmt.Printf("  cache hits  %9.1f%%   verified %d/%d sampled responses\n", 100*entry.HitRate, entry.Verified, entry.Requests)
	return nil
}

// runServeBenchCmd drives the suite: measure, optionally diff against a
// previous report, optionally persist (embedding the compared report as
// the recorded "previous" so the baseline file carries its own
// before/after story). Cells regressing beyond thr fail the run — after
// the report is written, so CI still uploads the artifact that explains
// the failure.
func runServeBenchCmd(jsonOut, comparePath string, quick bool, thr serveThresholds, opts loadOpts) error {
	started := time.Now()
	rep, err := runServeBench(quick, opts)
	if err != nil {
		return err
	}
	var regressions []string
	if comparePath != "" {
		old, err := loadServeReport(comparePath)
		if err != nil {
			return err
		}
		if regressions, err = compareServeReports(old, rep, thr, os.Stdout); err != nil {
			return err
		}
		rep.Previous = old.Entries
		rep.PreviousNote = fmt.Sprintf("baseline from %s (generated %s)", comparePath, old.GeneratedAt)
	}
	if jsonOut != "" {
		if err := writeServeReport(rep, jsonOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells) in %v\n", jsonOut, len(rep.Entries), time.Since(started).Round(time.Millisecond))
	}
	if len(regressions) > 0 {
		fmt.Println("regressed cells:")
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		return fmt.Errorf("%d load-test cell(s) regressed beyond threshold vs %s (rerun with -regress-ok to accept)",
			len(regressions), comparePath)
	}
	return nil
}
