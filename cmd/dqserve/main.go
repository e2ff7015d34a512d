// Command dqserve exposes the planner service layer over HTTP: a long-lived
// optimizer process with a canonical plan cache, singleflight deduplication,
// and batch fan-out, so many clients amortize branch-and-bound across
// structurally identical queries. The handler itself lives in
// internal/serve (shared with the dqload scenario gates); this command binds
// it to a hardened http.Server.
//
// Endpoints, all under /v1 and all speaking one envelope — a newline-
// terminated JSON document {"data":<payload>,"error":null} on success and
// {"data":null,"error":{"code","message"}} on failure, where an admission
// shed (429) also carries "reason" and "retryAfterSeconds" next to its
// Retry-After header:
//
//	POST /v1/optimize        body: one JSON instance {"query": {...}}
//	                         data: the instance with "plan" and "cost"
//	                         filled in, plus planner provenance and search
//	                         stats.
//	POST /v1/optimize/batch  body: {"instances": [{...}, ...]}
//	                         data: {"results": [...]} in input order; a bad
//	                         instance fails alone, as an item
//	                         {"error":{"code","message"}}, not the batch.
//	POST /v1/observe         body: one execution report {"services": [...],
//	                         "transfers": [...]} (only with -adaptive);
//	                         feeds the drift detector. Data: current
//	                         generation, live drift, and whether this report
//	                         published a new generation.
//	POST /v1/execute         body: {"query": {...}, "tuples": N} (only with
//	                         -exec-backend); optimizes (or reuses the cached
//	                         plan), streams N tuples through the plan on the
//	                         fault-tolerant executor, and — with -adaptive —
//	                         feeds the execution report back into the drift
//	                         detector. Data: the plan plus per-stage counts;
//	                         backend failures degrade to a typed partial
//	                         result ("degraded": {...}), never a wrong one.
//	POST /v1/call/{service}  body: {"tuples": [...]} (only with
//	                         -exec-backend); one call of the configured
//	                         service backend.
//	GET  /v1/stats           cache hit/miss/eviction/touch and dedup
//	                         counters, the plan-cache hit rate,
//	                         optimize-latency quantiles (p50/p90/p99),
//	                         aggregate search stats (nodes expanded, search
//	                         micros), and — with -adaptive — generation/
//	                         drift/replan counters.
//	GET  /v1/healthz         readiness: {"status": "ok"} or {"status":
//	                         "degraded", "reasons": [...]} (snapshot restore
//	                         failed, replan queue saturated, circuit breaker
//	                         open). Always 200 while the process serves.
//	GET  /debug/pprof/*      runtime profiling, only with -pprof.
//
// Usage:
//
//	dqserve -addr :8080 -cache 4096
//	dqserve -pprof       # expose /debug/pprof for production profiling
//	dqserve -adaptive    # online adaptive replanning: POST /v1/observe
//	                     # feeds decayed, sample-size-weighted statistics;
//	                     # significant drift past -drift-delta bumps the
//	                     # generation and lazily replans cached plans
//	dqserve -node-limit -1            # no node budget: every query up to
//	                                  # 64 services is proven (larger ones
//	                                  # still get a heuristic plan)
//	dqserve -admit-max-concurrent 8   # overload survival: bounded admission
//	                                  # queue, cold work shed first (429 +
//	                                  # Retry-After), warm hits admitted
//	                                  # longest, X-Tenant fair share
//	dqserve -stale-serve              # degraded mode: serve the previous
//	                                  # generation's cached plan (flagged
//	                                  # "stale": true) instead of shedding,
//	                                  # replan in the background
//	dqserve -snapshot-path plans.snap # warm boot: restore the plan cache at
//	                                  # startup, dump it periodically and on
//	                                  # SIGTERM (atomic rename)
//	dqserve -exec-backend mock        # enable POST /v1/execute against the
//	                                  # deterministic in-process backend
//	                                  # (-exec-seed); pass a base URL
//	                                  # instead to call real service hosts
//	                                  # speaking the POST /call/{service}
//	                                  # protocol (exec.BackendHandler)
//	dqserve -exec-backend mock -exec-call-timeout 500ms -exec-deadline 30s
//	                                  # per-call timeout and end-to-end
//	                                  # deadline; retries, breakers and
//	                                  # hedge budgets run at the exec
//	                                  # package defaults
//	dqserve -fleet-addr :9080 -peers host1:9080,host2:9080,host3:9080 \
//	        -fleet-id prod -replication 2
//	                                  # fleet member: the plan-signature
//	                                  # space is consistent-hash sharded
//	                                  # across the peers; mis-owned
//	                                  # /v1/optimize requests forward to
//	                                  # their owner, warm entries replicate
//	                                  # owner->replica, adaptive generations
//	                                  # gossip to every peer
//
// Instances up to the exact core's 64-service limit take the exact search
// first, under a node budget; one that spends it, and every instance past
// the limit, is served by the heuristic planning tier (greedy + beam +
// local search, seeded with the spent search's incumbent). Every response
// reports which tier produced its plan in the "tier" field.
//
// Example:
//
//	curl -s -X POST localhost:8080/v1/optimize -d @query.json
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/exec"
	"serviceordering/internal/fleet"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "dqserve:", err)
		os.Exit(1)
	}
}

// config is dqserve's whole configuration: the option structs it hands to
// planner, serve, admit, exec, fleet and adapt, plus its own listener,
// snapshot and backend settings. parseFlags binds every flag straight onto
// the field it sets; every field no flag sets keeps its package default.
type config struct {
	planner planner.Config
	serve   serve.Options
	admit   admit.Options
	exec    exec.Options
	fleet   fleet.Options
	adapt   adapt.Config

	addr         string
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	maxHeader    int

	snapshotPath     string
	snapshotInterval time.Duration

	adaptive     bool
	execBackend  string
	execReplicas int
}

// parseFlags binds dqserve's flags onto a config, parses args, and rejects
// configurations that cannot serve.
func parseFlags(args []string) (config, error) {
	var c config
	if err := newFlagSet(&c).Parse(args); err != nil {
		return config{}, err
	}
	// A negative time budget passes startup but fails every exact search,
	// so refuse it here.
	if c.planner.TimeLimit < 0 {
		return config{}, fmt.Errorf("-time-limit %v must be >= 0", c.planner.TimeLimit)
	}
	if c.serve.StaleServe && c.admit.MaxConcurrent <= 0 {
		return config{}, fmt.Errorf("-stale-serve requires admission control (-admit-max-concurrent > 0): stale-serve is the degraded mode of a shed, and without shedding there is nothing to degrade")
	}
	if len(c.fleet.Peers) > 0 && c.fleet.Self == "" {
		return config{}, fmt.Errorf("-peers requires -fleet-addr (this node's own peer address)")
	}
	return c, nil
}

// newFlagSet binds every dqserve flag onto the field of c it sets.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("dqserve", flag.ContinueOnError)

	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.planner.CacheCapacity, "cache", planner.DefaultCacheCapacity, "plan cache capacity (-1 disables)")
	fs.DurationVar(&c.planner.TimeLimit, "time-limit", 0, "per-search time budget; a search it stops answers its unproven incumbent, uncached (0 = none)")
	fs.Int64Var(&c.planner.NodeLimit, "node-limit", 0, "per-search node budget; a search that spends it gets a cached heuristic plan seeded with its incumbent (0 = 2^19, -1 = none)")
	fs.Int64Var(&c.serve.MaxBody, "max-body", 0, "request body size limit in bytes (0 = 8 MiB)")
	fs.BoolVar(&c.serve.Pprof, "pprof", false, "expose /debug/pprof endpoints for live profiling")

	// Overload survival: admission control, stale-serve, warm-boot
	// snapshots.
	fs.IntVar(&c.admit.MaxConcurrent, "admit-max-concurrent", 0, "admission control: max concurrently served optimize requests (0 disables admission entirely)")
	fs.BoolVar(&c.serve.StaleServe, "stale-serve", false, "serve the previous generation's cached plan (flagged \"stale\": true, background replan) instead of shedding a cold re-optimize; needs admission enabled")
	fs.StringVar(&c.snapshotPath, "snapshot-path", "", "plan-cache snapshot file: restored at boot, dumped every -snapshot-interval and on shutdown (empty disables)")
	fs.DurationVar(&c.snapshotInterval, "snapshot-interval", 5*time.Minute, "periodic snapshot dump interval (0 = dump only on shutdown)")

	// Fault-tolerant streaming execution (POST /v1/execute), hedged calls
	// and plan-aware failover.
	fs.StringVar(&c.execBackend, "exec-backend", "", "execution backend enabling POST /v1/execute: \"mock\" (deterministic in-process, seeded by -exec-seed) or the base URL of a service host speaking POST /call/{service} (empty disables the route)")
	fs.Int64Var(&c.exec.JitterSeed, "exec-seed", 1, "seed for the mock execution backend and the retry-jitter stream")
	fs.DurationVar(&c.exec.CallTimeout, "exec-call-timeout", 0, "per-service call timeout; a timed-out call is retried like a failure (0 = 1s default)")
	fs.DurationVar(&c.exec.Deadline, "exec-deadline", 0, "end-to-end execution deadline per /v1/execute request, propagated to every call (0 = none; the server write timeout still applies)")
	fs.IntVar(&c.execReplicas, "exec-replicas", 0, "replica count the mock backend reports per service; >= 2 arms hedged calls (0 = 1, no hedging; ignored for HTTP backends)")
	fs.DurationVar(&c.exec.HedgeDelay, "exec-hedge-delay", 0, "fixed delay before a slow call is hedged against a replica (0 = adapt per service to its 0.95-quantile latency, negative disables hedging)")
	fs.BoolVar(&c.exec.Failover, "exec-failover", false, "enable plan-aware failover: re-solve the residual query around a failed stage and rescue the request instead of degrading")

	// Fleet: consistent-hash sharding of the plan-signature space across
	// several dqserve processes (see internal/fleet). All three peer flags
	// must agree across the fleet.
	fs.StringVar(&c.fleet.Self, "fleet-addr", "", "this node's peer-protocol listen address (host:port); required with -peers")
	fs.Func("peers", "fleet membership: comma-separated `list` of every peer's -fleet-addr, including this node's (empty = single-node, no fleet)", func(v string) error {
		c.fleet.Peers = nil
		if v != "" {
			for _, m := range strings.Split(v, ",") {
				c.fleet.Peers = append(c.fleet.Peers, strings.TrimSpace(m))
			}
		}
		return nil
	})
	fs.StringVar(&c.fleet.FleetID, "fleet-id", "dqfleet", "fleet name; peers refuse frames from another fleet")
	fs.IntVar(&c.fleet.Replication, "replication", 0, "peers (owner included) holding each warm plan entry (0 = 2)")

	fs.BoolVar(&c.adaptive, "adaptive", false, "enable online adaptive replanning: ingest execution reports on POST /v1/observe, overlay fitted statistics onto queries, replan on drift")
	fs.Float64Var(&c.adapt.DriftDelta, "drift-delta", adapt.DefaultDriftDelta, "relative parameter drift that publishes a new statistics generation, when it is also statistically significant at the parameter's sample size (derive from a regret budget with adapt.ThresholdFromRegret)")

	// Server hardening. ReadTimeout covers the whole request read —
	// headers and body — so a client dribbling its body is cut off.
	// WriteTimeout bounds handler-plus-response time, so it must
	// comfortably exceed the search time limit or long optimizations are
	// severed mid-write; with -time-limit defaulting to 0 (unbounded
	// search) and batches running many searches per request, no finite
	// default is safe, so it ships disabled — deployments that set
	// -time-limit should set this alongside it.
	fs.DurationVar(&c.readTimeout, "read-timeout", time.Minute, "max duration for reading an entire request, body included (0 = none)")
	fs.DurationVar(&c.writeTimeout, "write-timeout", 0, "max duration from end of request read to end of response write (0 = none; pair with -time-limit)")
	fs.DurationVar(&c.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time between requests (0 = none)")
	fs.IntVar(&c.maxHeader, "max-header", http.DefaultMaxHeaderBytes, "request header size limit in bytes")
	return fs
}

// run parses flags and serves until the process is signaled. When ready is
// non-nil the bound address is sent on it once the listener is up (used by
// tests to serve on :0).
func run(args []string, ready chan<- string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	if c.adaptive {
		if c.planner.Adaptive, err = adapt.New(c.adapt); err != nil {
			return err
		}
	}
	p := planner.New(c.planner)

	// Warm boot: replay the previous process's plan cache. A missing file
	// is a normal first boot; a corrupt one is logged and ignored (the
	// node just starts cold — a snapshot is an optimization, never a
	// dependency), but /v1/healthz reports the cold start as degraded so
	// operators notice.
	if c.snapshotPath != "" {
		if n, err := restoreSnapshot(p, c.snapshotPath); err != nil {
			if !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "dqserve: snapshot restore:", err)
				c.serve.SnapshotRestoreFailed = true
			}
		} else {
			fmt.Fprintf(os.Stderr, "dqserve: restored %d cached plans from %s\n", n, c.snapshotPath)
		}
	}

	if c.execBackend == "mock" {
		mb := exec.NewMockBackend(c.exec.JitterSeed)
		// The server sees arbitrary queries, so the mock derives a
		// deterministic profile for any service name it is asked for.
		mb.DeriveUnknown = true
		if c.execReplicas > 1 {
			mb.SetDefaultReplicas(c.execReplicas)
		}
		c.serve.Backend = mb
	} else if c.execBackend != "" {
		c.serve.Backend = &exec.HTTPBackend{BaseURL: c.execBackend}
	}
	if c.serve.Backend != nil {
		c.serve.Executor = exec.New(c.serve.Backend, c.exec)
	}
	if c.admit.MaxConcurrent > 0 {
		c.serve.Admission = admit.New(c.admit)
	}

	// Fleet membership: a static peer list, this node identified by its
	// own -fleet-addr appearing in it. The peer listener binds before the
	// HTTP listener so a peer booting later can reach this one as soon as
	// it serves traffic.
	if len(c.fleet.Peers) > 0 {
		ps, err := fleet.ListenPeer(c.fleet.Self, c.fleet.FleetID)
		if err != nil {
			return err
		}
		c.fleet.Planner, c.fleet.Registry, c.fleet.Server = p, c.planner.Adaptive, ps
		if c.serve.Fleet, err = fleet.New(c.fleet); err != nil {
			ps.Close()
			return err
		}
		c.serve.Fleet.Run()
		defer c.serve.Fleet.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Handler:           serve.NewHandler(p, c.serve),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       c.readTimeout,
		WriteTimeout:      c.writeTimeout,
		IdleTimeout:       c.idleTimeout,
		MaxHeaderBytes:    c.maxHeader,
		// Every request context descends from the signal context, so a
		// SIGTERM (or a client disconnect, which net/http layers on top)
		// aborts in-flight branch-and-bound searches instead of letting
		// them run to a completion nobody will read.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Periodic snapshot dumps bound how much warmth a crash loses.
	if c.snapshotPath != "" && c.snapshotInterval > 0 {
		go func() {
			tick := time.NewTicker(c.snapshotInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := dumpSnapshot(p, c.snapshotPath); err != nil {
						fmt.Fprintln(os.Stderr, "dqserve: snapshot dump:", err)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		// Dump after the drain: the final snapshot includes everything the
		// last in-flight requests planned.
		if c.snapshotPath != "" {
			if n, derr := dumpSnapshot(p, c.snapshotPath); derr != nil {
				fmt.Fprintln(os.Stderr, "dqserve: final snapshot dump:", derr)
			} else {
				fmt.Fprintf(os.Stderr, "dqserve: dumped %d cached plans to %s\n", n, c.snapshotPath)
			}
		}
		return err
	}
}

// dumpSnapshot writes the plan cache to path atomically: a temp file in
// the same directory, fsync'd, then renamed over the target — a crash
// mid-dump leaves the previous snapshot intact, never a torn one.
func dumpSnapshot(p *planner.Planner, path string) (int, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := p.SaveSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// restoreSnapshot loads path into the planner's plan cache. The planner
// validates the checksum and every entry, refusing the whole document when
// any fails, and restamps entry generations (stale, never fresh) when the
// snapshot's statistics generation cannot be proven current — see
// planner.LoadSnapshot.
func restoreSnapshot(p *planner.Planner, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return p.LoadSnapshot(f)
}
