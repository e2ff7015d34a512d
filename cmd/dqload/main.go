// Command dqload runs the serving-path scenario gates: seven end-to-end
// scenarios that drive a dqserve stack over its /v1 surface and fail
// unless it behaves by contract. Every sampled answer is cross-checked
// against independently computed optima, so a faster-but-wrong serving
// path can never pass.
//
//	dqload [-quick] [-seed n] [-target url,...] <scenario>
//
// The scenarios:
//
//	drift     the adaptive replanning loop: a mid-run ground-truth
//	          perturbation that served plans must recover from
//	overload  admission control and stale-serve at 4x the calibrated
//	          saturation rate: every shed typed, every admitted answer exact
//	restart   a plan-cache snapshot round trip: a warm-booted server must
//	          serve >= 90% of its first window from cache
//	execute   the optimize -> execute -> observe -> replan loop through
//	          POST /v1/execute, recovering from a backend drift on
//	          execution feedback alone
//	chaos     the same path under a deterministic fault plan: typed
//	          degrades, breaker transitions, bounded p99, no goroutine leaks
//	failover  hedged calls, plan-aware failover, and reliability-priced
//	          replanning
//	fleet     three consistent-hash-sharded peers: aggregate throughput,
//	          cross-node cache hits, and drift convergence with the
//	          observer and replanner on different nodes
//
// Each scenario self-hosts its servers in-process. Only fleet accepts
// -target: two or more comma-separated URLs of an externally hosted
// fleet. -quick selects the CI-sized budgets and windows. Serving speed
// is measured by the perfbench module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqload:", err)
		os.Exit(1)
	}
}

// scenarios maps each scenario name to the function that runs it and
// prints its summary.
var scenarios = []struct {
	name string
	run  func(quick bool, opts loadOpts) error
}{
	{"drift", runDrift},
	{"overload", runOverload},
	{"restart", runRestart},
	{"execute", runExecute},
	{"chaos", runChaos},
	{"failover", runFailover},
	{"fleet", runFleet},
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqload", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI-sized scenario: smaller budgets and windows")
	seed := fs.Int64("seed", 1, "workload generation seed")
	target := fs.String("target", "", "fleet only: >= 2 comma-separated base URLs of an externally hosted fleet (default: self-host)")
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dqload [-quick] [-seed n] [-target url,...] <scenario>\n\nscenarios: %s\n\nflags:\n",
			strings.Join(names, ", "))
		fs.PrintDefaults()
	}
	usageError := func(format string, a ...any) error {
		fs.Usage()
		return fmt.Errorf(format, a...)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Parsing stops at the first non-flag argument, so a flag after the
	// scenario name arrives here as a second argument.
	switch {
	case fs.NArg() == 0:
		return usageError("no scenario named")
	case fs.NArg() > 1 && strings.HasPrefix(fs.Arg(1), "-"):
		return usageError("flag %s after the scenario name; flags go first", fs.Arg(1))
	case fs.NArg() > 1:
		return usageError("one scenario per run, got %s", strings.Join(fs.Args(), " "))
	}
	for _, s := range scenarios {
		if s.name == fs.Arg(0) {
			return s.run(*quick, loadOpts{seed: *seed, target: *target})
		}
	}
	return usageError("unknown scenario %q", fs.Arg(0))
}

func runDrift(quick bool, opts loadOpts) error {
	res, err := runDriftScenario(defaultDriftSpec(quick), opts)
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

func runOverload(quick bool, opts loadOpts) error {
	res, err := runOverloadScenario(defaultOverloadSpec(quick), opts)
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

func runRestart(quick bool, opts loadOpts) error {
	res, err := runRestartScenario(defaultRestartSpec(quick), opts)
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

func runExecute(quick bool, opts loadOpts) error {
	res, err := runExecuteScenario(defaultExecSpec(quick), opts)
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

func runChaos(quick bool, opts loadOpts) error {
	res, err := runChaosScenario(defaultChaosSpec(quick), opts)
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

func runFailover(quick bool, opts loadOpts) error {
	res, err := runFailoverScenario(defaultFailoverSpec(quick), opts)
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

func runFleet(quick bool, opts loadOpts) error {
	res, err := runFleetScenario(defaultFleetSpec(quick), opts)
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
