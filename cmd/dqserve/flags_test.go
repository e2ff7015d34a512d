package main

import (
	"flag"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/planner"
)

// keptFlags is dqserve's whole flag surface. Adding or removing a flag
// must change this list.
var keptFlags = []string{
	"adaptive", "addr", "admit-max-concurrent", "cache", "drift-delta",
	"exact-only", "exec-backend", "exec-call-timeout", "exec-deadline",
	"exec-failover", "exec-hedge-delay", "exec-replicas", "exec-seed",
	"fleet-addr", "fleet-id", "idle-timeout", "max-body",
	"max-header", "node-limit", "peers", "pprof",
	"read-timeout", "replication", "snapshot-interval", "snapshot-path",
	"stale-serve", "time-limit", "write-timeout",
}

// TestFlagSet pins the flag names dqserve accepts.
func TestFlagSet(t *testing.T) {
	var got []string
	newFlagSet(&config{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, keptFlags) {
		t.Fatalf("flags = %q\nwant    %q", got, keptFlags)
	}
}

// TestRetiredFlagsFail: a flag that was removed fails startup instead of
// being silently ignored.
func TestRetiredFlagsFail(t *testing.T) {
	for _, name := range []string{
		"search-workers", "batch-workers", "parallel-threshold", "beam-width", "heuristic-bb-nodes", "heuristic-threshold",
		"admit-max-queue", "admit-max-wait", "admit-cold-frac", "admit-tenant-burst", "replan-queue",
		"exec-retry-budget", "exec-breaker-threshold", "exec-breaker-cooldown", "exec-block",
		"exec-hedge-quantile", "exec-hedge-budget", "exec-hedge-cap", "exec-failover-retries",
		"ewma-alpha", "min-obs",
	} {
		fs := newFlagSet(&config{})
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want an undefined-flag error", name, err)
		}
	}
}

// TestFlagsLandInConfig feeds every kept flag a non-default value and
// checks the config field it binds, and that the field's default with no
// flags is the effective default it always had.
func TestFlagsLandInConfig(t *testing.T) {
	defaults, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args      []string // args[0] names the flag under test
		field     func(c config) any
		want, def any
	}{
		{[]string{"-addr", "127.0.0.1:9"}, func(c config) any { return c.addr }, "127.0.0.1:9", ":8080"},
		{[]string{"-cache", "16"}, func(c config) any { return c.planner.CacheCapacity }, 16, planner.DefaultCacheCapacity},
		{[]string{"-time-limit", "3s"}, func(c config) any { return c.planner.Search.TimeLimit }, 3 * time.Second, time.Duration(0)},
		{[]string{"-node-limit", "500"}, func(c config) any { return c.planner.Search.NodeLimit }, int64(500), int64(0)},
		{[]string{"-exact-only"}, func(c config) any { return c.planner.ExactOnly }, true, false},
		{[]string{"-max-body", "1024"}, func(c config) any { return c.serve.MaxBody }, int64(1024), int64(0)},
		{[]string{"-pprof"}, func(c config) any { return c.serve.Pprof }, true, false},
		{[]string{"-admit-max-concurrent", "3"}, func(c config) any { return c.admit.MaxConcurrent }, 3, 0},
		{[]string{"-stale-serve", "-admit-max-concurrent", "1"}, func(c config) any { return c.serve.StaleServe }, true, false},
		{[]string{"-snapshot-path", "plans.snap"}, func(c config) any { return c.snapshotPath }, "plans.snap", ""},
		{[]string{"-snapshot-interval", "1m"}, func(c config) any { return c.snapshotInterval }, time.Minute, 5 * time.Minute},
		{[]string{"-exec-backend", "mock"}, func(c config) any { return c.execBackend }, "mock", ""},
		{[]string{"-exec-seed", "7"}, func(c config) any { return c.exec.JitterSeed }, int64(7), int64(1)},
		{[]string{"-exec-call-timeout", "500ms"}, func(c config) any { return c.exec.CallTimeout }, 500 * time.Millisecond, time.Duration(0)},
		{[]string{"-exec-deadline", "30s"}, func(c config) any { return c.exec.Deadline }, 30 * time.Second, time.Duration(0)},
		{[]string{"-exec-replicas", "2"}, func(c config) any { return c.execReplicas }, 2, 0},
		{[]string{"-exec-hedge-delay", "1ms"}, func(c config) any { return c.exec.HedgeDelay }, time.Millisecond, time.Duration(0)},
		{[]string{"-exec-failover"}, func(c config) any { return c.exec.Failover }, true, false},
		{[]string{"-fleet-addr", "127.0.0.1:9801"}, func(c config) any { return c.fleet.Self }, "127.0.0.1:9801", ""},
		{[]string{"-peers", "a:1, b:2", "-fleet-addr", "a:1"}, func(c config) any { return c.fleet.Peers }, []string{"a:1", "b:2"}, []string(nil)},
		{[]string{"-fleet-id", "prod"}, func(c config) any { return c.fleet.FleetID }, "prod", "dqfleet"},
		{[]string{"-replication", "3"}, func(c config) any { return c.fleet.Replication }, 3, 0},
		{[]string{"-adaptive"}, func(c config) any { return c.adaptive }, true, false},
		{[]string{"-drift-delta", "0.2"}, func(c config) any { return c.adapt.DriftDelta }, 0.2, adapt.DefaultDriftDelta},
		{[]string{"-read-timeout", "2s"}, func(c config) any { return c.readTimeout }, 2 * time.Second, time.Minute},
		{[]string{"-write-timeout", "4s"}, func(c config) any { return c.writeTimeout }, 4 * time.Second, time.Duration(0)},
		{[]string{"-idle-timeout", "5s"}, func(c config) any { return c.idleTimeout }, 5 * time.Second, 2 * time.Minute},
		{[]string{"-max-header", "4096"}, func(c config) any { return c.maxHeader }, 4096, http.DefaultMaxHeaderBytes},
	}
	var covered []string
	for _, tc := range cases {
		name := strings.TrimPrefix(tc.args[0], "-")
		covered = append(covered, name)
		if got := tc.field(defaults); !reflect.DeepEqual(got, tc.def) {
			t.Errorf("-%s default: field = %#v, want %#v", name, got, tc.def)
		}
		c, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if got := tc.field(c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: field = %#v, want %#v", tc.args, got, tc.want)
		}
	}
	slices.Sort(covered)
	if !slices.Equal(covered, keptFlags) {
		t.Fatalf("table covers %q\nwant       %q", covered, keptFlags)
	}
}

// TestRunRejectsUnservableConfig: a negative search budget, or a fleet
// member without its own peer address, fails startup before the listener
// opens; a negative budget would otherwise serve 422 on every exact query.
func TestRunRejectsUnservableConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-node-limit", "-1"}, "NodeLimit -1 must be >= 0"},
		{[]string{"-time-limit", "-1s"}, "TimeLimit -1s must be >= 0"},
		{[]string{"-peers", "a:1,b:2"}, "-peers requires -fleet-addr"},
	} {
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...), ready) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
			}
		case <-ready:
			t.Errorf("%q: listener opened; the config was not rejected", tc.args)
			if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			<-done
		}
	}
}
