// Command dqserve exposes the planner service layer over HTTP: a long-lived
// optimizer process with a canonical plan cache, singleflight deduplication,
// and batch fan-out, so many clients amortize branch-and-bound across
// structurally identical queries. The handler itself lives in
// internal/serve (shared with the cmd/dqload load generator); this command
// binds it to a hardened http.Server.
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
//	dqserve -addr :8080 -cache 4096 -batch-workers 8
//	dqserve -pprof       # expose /debug/pprof for production profiling
//	dqserve -adaptive    # online adaptive replanning: POST /v1/observe
//	                     # feeds decayed, sample-size-weighted statistics;
//	                     # significant drift past -drift-delta bumps the
//	                     # generation and lazily replans cached plans
//	dqserve -heuristic-threshold 20   # route n >= 20 to the heuristic tier
//	dqserve -heuristic-threshold -1   # exact only: n > 64 rejected with 422
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
//	dqserve -exec-backend mock -exec-retry-budget 4 -exec-breaker-threshold 3 \
//	        -exec-call-timeout 500ms -exec-deadline 30s
//	                                  # fault-tolerance knobs: per-request
//	                                  # retry budget, per-service breaker,
//	                                  # per-call timeout, end-to-end deadline
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
// Instances with more services than the exact core's 64-service limit are
// served by the heuristic planning tier (greedy + beam + local search, and
// budgeted branch-and-bound where it still fits); every response reports
// which tier produced its plan in the "tier" field.
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
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/fleet"
	"serviceordering/internal/htier"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "dqserve:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until the process is signaled. When ready is
// non-nil the bound address is sent on it once the listener is up (used by
// tests to serve on :0).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("dqserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		cacheCap     = fs.Int("cache", planner.DefaultCacheCapacity, "plan cache capacity (-1 disables)")
		searchState  = fs.Int("parallel-threshold", planner.DefaultParallelThreshold, "instance size switching to parallel search (-1 = always sequential)")
		workers      = fs.Int("search-workers", 0, "parallel search workers (0 = GOMAXPROCS)")
		batchWorkers = fs.Int("batch-workers", 0, "concurrent batch instances (0 = GOMAXPROCS)")
		timeLimit    = fs.Duration("time-limit", 0, "per-search time budget (0 = none)")
		nodeLimit    = fs.Int64("node-limit", 0, "per-search node budget (0 = none)")
		maxBody      = fs.Int64("max-body", 8<<20, "request body size limit in bytes")
		pprofOn      = fs.Bool("pprof", false, "expose /debug/pprof endpoints for live profiling")

		// Heuristic planning tier (large n).
		htThreshold = fs.Int("heuristic-threshold", 0, "instance size routed to the heuristic tier (0 = default 15, -1 disables: queries past the 64-service exact limit are rejected)")
		htBeamWidth = fs.Int("beam-width", 0, "heuristic tier beam width (0 = default, -1 disables the beam member)")
		htBBBudget  = fs.Int64("heuristic-bb-nodes", 0, "node budget for the heuristic tier's anytime branch-and-bound member on n <= 64 (0 = default, -1 disables)")

		// Overload survival: admission control, stale-serve, warm-boot
		// snapshots.
		admitMax    = fs.Int("admit-max-concurrent", 0, "admission control: max concurrently served optimize requests (0 disables admission entirely)")
		admitQueue  = fs.Int("admit-max-queue", 0, "admission queue length (0 = 4x admit-max-concurrent)")
		admitWait   = fs.Duration("admit-max-wait", 0, "max time a request may wait in the admission queue before a 429 (0 = 250ms default)")
		admitCold   = fs.Float64("admit-cold-frac", 0, "fraction of the admission queue cold (uncached) requests may occupy, in (0,1] (0 = 0.5 default)")
		admitBurst  = fs.Int("admit-tenant-burst", 0, "per-tenant occupancy floor under the X-Tenant fair-share gate (0 = default 2)")
		staleServe  = fs.Bool("stale-serve", false, "serve the previous generation's cached plan (flagged \"stale\": true, background replan) instead of shedding a cold re-optimize; needs admission enabled")
		snapPath    = fs.String("snapshot-path", "", "plan-cache snapshot file: restored at boot, dumped every -snapshot-interval and on shutdown (empty disables)")
		snapEvery   = fs.Duration("snapshot-interval", 5*time.Minute, "periodic snapshot dump interval (0 = dump only on shutdown)")
		replanQueue = fs.Int("replan-queue", 0, "background replan queue depth for stale-served requests (0 = default 64)")

		// Fault-tolerant streaming execution (POST /v1/execute).
		execBackend = fs.String("exec-backend", "", "execution backend enabling POST /v1/execute: \"mock\" (deterministic in-process, seeded by -exec-seed) or the base URL of a service host speaking POST /call/{service} (empty disables the route)")
		execSeed    = fs.Int64("exec-seed", 1, "seed for the mock execution backend and the retry-jitter stream")
		execTimeout = fs.Duration("exec-call-timeout", 0, "per-service call timeout; a timed-out call is retried like a failure (0 = 1s default)")
		execRetries = fs.Int("exec-retry-budget", 0, "retries one /v1/execute request may spend across all its services before degrading (0 = default 8, -1 disables retries)")
		execBrkN    = fs.Int("exec-breaker-threshold", 0, "consecutive failures opening a service's circuit breaker (0 = default 5, -1 disables breakers)")
		execBrkCool = fs.Duration("exec-breaker-cooldown", 0, "how long an open breaker sheds before admitting a half-open probe (0 = 1s default)")
		execDeadln  = fs.Duration("exec-deadline", 0, "end-to-end execution deadline per /v1/execute request, propagated to every call (0 = none; the server write timeout still applies)")
		execBlock   = fs.Int("exec-block", 0, "tuples per streamed block between pipeline stages (0 = 64 default)")

		// Hedged calls and plan-aware failover.
		execReplicas   = fs.Int("exec-replicas", 0, "replica count the mock backend reports per service; >= 2 arms hedged calls (0 = 1, no hedging; ignored for HTTP backends)")
		execHedgeDelay = fs.Duration("exec-hedge-delay", 0, "fixed delay before a slow call is hedged against a replica (0 = adapt per service to the -exec-hedge-quantile latency, -1 disables hedging)")
		execHedgeQ     = fs.Float64("exec-hedge-quantile", 0, "latency quantile the adaptive hedge delay tracks (0 = 0.95 default)")
		execHedgeBudg  = fs.Int("exec-hedge-budget", 0, "hedged attempts one /v1/execute request may launch (0 = default 2, -1 disables)")
		execHedgeCap   = fs.Float64("exec-hedge-cap", 0, "global cap on hedges as a fraction of all call attempts (0 = 0.25 default, -1 uncapped)")
		execFailover   = fs.Bool("exec-failover", false, "enable plan-aware failover: re-solve the residual query around a failed stage and rescue the request instead of degrading")
		execFailRetry  = fs.Int("exec-failover-retries", 0, "fresh retry budget a failover rescue pipeline runs under (0 = default 4, -1 disables rescue retries)")

		// Fleet: consistent-hash sharding of the plan-signature space
		// across several dqserve processes (see internal/fleet). All three
		// peer flags must agree across the fleet.
		fleetAddr   = fs.String("fleet-addr", "", "this node's peer-protocol listen address (host:port); required with -peers")
		fleetPeers  = fs.String("peers", "", "comma-separated fleet membership: every peer's -fleet-addr, including this node's (empty = single-node, no fleet)")
		fleetID     = fs.String("fleet-id", "dqfleet", "fleet name; peers refuse frames from another fleet")
		replication = fs.Int("replication", 2, "peers (owner included) holding each warm plan entry")

		adaptiveOn = fs.Bool("adaptive", false, "enable online adaptive replanning: ingest execution reports on POST /v1/observe, overlay fitted statistics onto queries, replan on drift")
		driftDelta = fs.Float64("drift-delta", adapt.DefaultDriftDelta, "relative parameter drift that publishes a new statistics generation, when it is also statistically significant at the parameter's sample size (derive from a regret budget with adapt.ThresholdFromRegret)")
		ewmaAlpha  = fs.Float64("ewma-alpha", adapt.DefaultAlpha, "per-observation decay of the sums behind each observed statistic, in (0, 1]; 1 keeps only the latest report")
		minObs     = fs.Int("min-obs", adapt.DefaultMinObservations, "observations per parameter before its estimate is trusted")

		// Server hardening. ReadTimeout covers the whole request read —
		// headers and body — so a client dribbling its body is cut off.
		// WriteTimeout bounds handler-plus-response time, so it must
		// comfortably exceed the search time limit or long optimizations
		// are severed mid-write; with -time-limit defaulting to 0
		// (unbounded search) and batches running many searches per
		// request, no finite default is safe, so it ships disabled —
		// deployments that set -time-limit should set this alongside it.
		readTimeout  = fs.Duration("read-timeout", time.Minute, "max duration for reading an entire request, body included (0 = none)")
		writeTimeout = fs.Duration("write-timeout", 0, "max duration from end of request read to end of response write (0 = none; pair with -time-limit)")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time between requests (0 = none)")
		maxHeader    = fs.Int("max-header", 1<<20, "request header size limit in bytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var registry *adapt.Registry
	if *adaptiveOn {
		var err error
		registry, err = adapt.New(adapt.Config{
			Alpha:           *ewmaAlpha,
			MinObservations: *minObs,
			DriftDelta:      *driftDelta,
		})
		if err != nil {
			return err
		}
	}

	p := planner.New(planner.Config{
		CacheCapacity:      *cacheCap,
		ParallelThreshold:  *searchState,
		SearchWorkers:      *workers,
		BatchWorkers:       *batchWorkers,
		Search:             core.Options{TimeLimit: *timeLimit, NodeLimit: *nodeLimit},
		Adaptive:           registry,
		HeuristicThreshold: *htThreshold,
		Heuristic: htier.Options{
			BeamWidth:    *htBeamWidth,
			BBNodeBudget: *htBBBudget,
		},
	})

	// Warm boot: replay the previous process's plan cache. A missing file
	// is a normal first boot; a corrupt one is logged and ignored (the
	// node just starts cold — a snapshot is an optimization, never a
	// dependency), but /v1/healthz reports the cold start as degraded so
	// operators notice.
	snapRestoreFailed := false
	if *snapPath != "" {
		if n, err := restoreSnapshot(p, *snapPath); err != nil {
			if !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "dqserve: snapshot restore:", err)
				snapRestoreFailed = true
			}
		} else {
			fmt.Fprintf(os.Stderr, "dqserve: restored %d cached plans from %s\n", n, *snapPath)
		}
	}

	var executor *exec.Executor
	var backend exec.Backend
	if *execBackend != "" {
		if *execBackend == "mock" {
			mb := exec.NewMockBackend(*execSeed)
			// The server sees arbitrary queries, so the mock derives a
			// deterministic profile for any service name it is asked for.
			mb.DeriveUnknown = true
			if *execReplicas > 1 {
				mb.SetDefaultReplicas(*execReplicas)
			}
			backend = mb
		} else {
			backend = &exec.HTTPBackend{BaseURL: *execBackend}
		}
		executor = exec.New(backend, exec.Options{
			BlockSize:           *execBlock,
			CallTimeout:         *execTimeout,
			RetryBudget:         *execRetries,
			BreakerThreshold:    *execBrkN,
			BreakerCooldown:     *execBrkCool,
			Deadline:            *execDeadln,
			JitterSeed:          *execSeed,
			HedgeDelay:          *execHedgeDelay,
			HedgeQuantile:       *execHedgeQ,
			HedgeBudget:         *execHedgeBudg,
			HedgeRateCap:        *execHedgeCap,
			Failover:            *execFailover,
			FailoverRetryBudget: *execFailRetry,
		})
	}

	var admission *admit.Controller
	if *admitMax > 0 {
		admission = admit.New(admit.Options{
			MaxConcurrent: *admitMax,
			MaxQueue:      *admitQueue,
			ColdQueueFrac: *admitCold,
			MaxWait:       *admitWait,
			TenantBurst:   *admitBurst,
		})
	} else if *staleServe {
		return fmt.Errorf("-stale-serve requires admission control (-admit-max-concurrent > 0): stale-serve is the degraded mode of a shed, and without shedding there is nothing to degrade")
	}

	// Fleet membership: a static peer list, this node identified by its
	// own -fleet-addr appearing in it. The peer listener binds before the
	// HTTP listener so a peer booting later can reach this one as soon as
	// it serves traffic.
	var fleetPeer *fleet.Peer
	if *fleetPeers != "" {
		if *fleetAddr == "" {
			return fmt.Errorf("-peers requires -fleet-addr (this node's own peer address)")
		}
		members := strings.Split(*fleetPeers, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		ps, err := fleet.ListenPeer(*fleetAddr, *fleetID)
		if err != nil {
			return err
		}
		fleetPeer, err = fleet.New(fleet.Options{
			FleetID:     *fleetID,
			Self:        *fleetAddr,
			Peers:       members,
			Replication: *replication,
			Planner:     p,
			Registry:    registry,
			Server:      ps,
		})
		if err != nil {
			ps.Close()
			return err
		}
		fleetPeer.Run()
		defer fleetPeer.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Handler: serve.NewHandler(p, serve.Options{
			MaxBody:               *maxBody,
			Pprof:                 *pprofOn,
			Admission:             admission,
			StaleServe:            *staleServe,
			ReplanQueue:           *replanQueue,
			Executor:              executor,
			SnapshotRestoreFailed: snapRestoreFailed,
			Fleet:                 fleetPeer,
			Backend:               backend,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeader,
		// Every request context descends from the signal context, so a
		// SIGTERM (or a client disconnect, which net/http layers on top)
		// aborts in-flight branch-and-bound searches instead of letting
		// them run to a completion nobody will read.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Periodic snapshot dumps bound how much warmth a crash loses.
	if *snapPath != "" && *snapEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := dumpSnapshot(p, *snapPath); err != nil {
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
		if *snapPath != "" {
			if n, derr := dumpSnapshot(p, *snapPath); derr != nil {
				fmt.Fprintln(os.Stderr, "dqserve: final snapshot dump:", derr)
			} else {
				fmt.Fprintf(os.Stderr, "dqserve: dumped %d cached plans to %s\n", n, *snapPath)
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
// validates the checksum and restamps entry generations (stale, never
// fresh) when the snapshot's statistics generation cannot be proven
// current — see planner.LoadSnapshot.
func restoreSnapshot(p *planner.Planner, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return p.LoadSnapshot(f)
}
