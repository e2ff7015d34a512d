package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: every malformed command line is a usage error
// that runs nothing — a flag that does not exist (or no longer does), no
// scenario, an unknown one, two at once, and a flag after the name (which
// the flag package would otherwise leave unparsed).
func TestRunRejectsBadFlags(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown flag":        {[]string{"-definitely-not-a-flag"}, "not defined"},
		"retired flag":        {[]string{"-drift-quick", "drift"}, "not defined"},
		"no scenario":         {[]string{"-quick"}, "no scenario named"},
		"unknown scenario":    {[]string{"-quick", "lukewarm"}, `unknown scenario "lukewarm"`},
		"two scenarios":       {[]string{"-quick", "drift", "fleet"}, "one scenario per run"},
		"flag after the name": {[]string{"drift", "-quick"}, "flag -quick after the scenario name"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run(%q) = %v, want an error containing %q", name, tc.args, err, tc.want)
		}
	}
}

// TestDriftScenario is the end-to-end adaptive replanning gate: a mid-run
// oracle perturbation must be recovered — served plans re-converge to
// within the regret budget of the post-drift optimum inside the
// observation budget, with zero stale-generation plans served after the
// replan generation is published (runDriftScenario fails on any
// violation; the assertions here pin the metrics it reports).
func TestDriftScenario(t *testing.T) {
	res, err := runDriftScenario(defaultDriftSpec(true), loadOpts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.obsToConverge <= 0 {
		t.Fatalf("converged in %d observations, want > 0 (the perturbation must actually break the plan)", res.obsToConverge)
	}
	if res.generations == 0 || res.replans == 0 {
		t.Fatalf("loop did not exercise the machinery: %d generations, %d replans", res.generations, res.replans)
	}
	if res.oldPlanRegret < 0.03 {
		t.Fatalf("stale plan regret %v under the new truth — the scenario's perturbation is vacuous", res.oldPlanRegret)
	}
	if res.staleServed != 0 {
		t.Fatalf("%d stale-generation plans served after the replan generation was published", res.staleServed)
	}
	if res.finalRegret > 0.01 {
		t.Fatalf("final served regret %v, budget 0.01", res.finalRegret)
	}
	if res.entry.Requests <= 0 || res.entry.Verified <= 0 {
		t.Fatalf("malformed drift summary: %+v", res.entry)
	}
	// The threshold is regret-derived, not a hard-coded default.
	if res.driftDelta <= 0 || res.driftDelta > 0.25 {
		t.Fatalf("drift threshold %v outside the probed range", res.driftDelta)
	}
}

// TestFailoverScenario is the end-to-end robustness gate: hedge decisions
// replay deterministically, every non-degraded response through the fault
// plan is the exact full answer, at least half the would-be-degraded
// requests are rescued by plan-aware failover, and reliability pricing
// demotes the flaky service (runFailoverScenario fails on any violation;
// the assertions here pin the metrics it reports).
func TestFailoverScenario(t *testing.T) {
	res, err := runFailoverScenario(defaultFailoverSpec(true), loadOpts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted < 5 || res.rescued == 0 {
		t.Fatalf("failover machinery unexercised: %d attempted, %d rescued", res.attempted, res.rescued)
	}
	if res.hedgesLaunched == 0 || res.hedgesWon == 0 || res.detHedges == 0 {
		t.Fatalf("hedging unexercised: %d launched, %d won, %d in the determinism replay",
			res.hedgesLaunched, res.hedgesWon, res.detHedges)
	}
	if res.victimPosAfter <= res.victimPosBefore {
		t.Fatalf("victim %s not demoted: position %d -> %d", res.victim, res.victimPosBefore, res.victimPosAfter)
	}
	if res.generations == 0 || res.driftExecs <= 0 {
		t.Fatalf("reliability drift unexercised: %d generations, converged in %d", res.generations, res.driftExecs)
	}
	if res.entry.Requests <= 0 || res.entry.Verified <= 0 {
		t.Fatalf("malformed failover summary: %+v", res.entry)
	}
}

// TestDriftScenarioRejectsExternalTarget: the scenario must refuse to run
// against a server whose ground truth it cannot control.
func TestDriftScenarioRejectsExternalTarget(t *testing.T) {
	if _, err := runDriftScenario(defaultDriftSpec(true), loadOpts{seed: 1, target: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("external target accepted")
	}
}
