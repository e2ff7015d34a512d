// Package serviceordering finds optimal service orderings for pipelined
// queries executed over decentralized web services, implementing the
// branch-and-bound algorithm of Tsamoura, Gounaris and Manolopoulos,
// "Brief Announcement: On the Quest of Optimal Service Ordering in
// Decentralized Queries" (PODC 2010).
//
// # The problem
//
// A query is a set of services; each service WSi has a per-tuple
// processing cost c_i, a selectivity sigma_i, and pairwise per-tuple
// transfer costs t_ij to every other service. Under pipelined,
// decentralized execution (each service streams its output directly to
// the next), the query response time is governed by the slowest stage:
//
//	cost(S) = max_i ( prod_{k before i} sigma_k ) * ( c_i + sigma_i * t_{i,i+1} )
//
// Minimizing this bottleneck cost over all linear orderings generalizes
// the bottleneck traveling-salesman problem and is NP-hard; this library
// solves moderate instances exactly in microseconds-to-milliseconds via
// lemma-driven pruning, and ships heuristics for larger ones.
//
// # Quick start
//
//	q, err := serviceordering.NewQuery(
//		[]serviceordering.Service{
//			{Name: "credit-cards", Cost: 0.8, Selectivity: 2.0},
//			{Name: "payment-history", Cost: 0.3, Selectivity: 0.2},
//		},
//		[][]float64{
//			{0, 0.05},
//			{0.10, 0},
//		})
//	if err != nil { ... }
//	res, err := serviceordering.Optimize(q)
//	// res.Plan is the provably optimal ordering, res.Cost its bottleneck.
//
// # Serving repeated traffic
//
// Optimize solves one instance from scratch. Services answering live
// traffic see the same query shapes again and again, so the planner
// service layer (NewPlanner) amortizes the search: every query is reduced
// to a canonical signature — services re-sorted under a cost-preserving
// normalization, the transfer matrix permuted to match — and resolved
// through a sharded, bounded plan cache. Structurally identical
// queries hash equal even when callers number their services differently;
// concurrent requests for the same signature are collapsed into a single
// branch-and-bound by singleflight deduplication; and OptimizeBatch fans
// many instances across a worker pool, returning results in input order.
//
//	pl := serviceordering.NewPlanner(serviceordering.PlannerConfig{})
//	res, err := pl.Optimize(ctx, q)   // cold: runs the search
//	res, err = pl.Optimize(ctx, q)    // warm: cache hit, zero nodes expanded
//
// cmd/dqserve exposes the same planner over HTTP (POST /v1/optimize,
// POST /v1/optimize/batch, GET /v1/stats) for long-lived optimizer
// processes; GET /v1/stats reports the plan-cache hit rate,
// optimize-latency quantiles, and aggregate search work (nodes expanded,
// search microseconds), and -pprof exposes /debug/pprof for live
// profiling of the search hot path.
//
// # The planning tiers
//
// The exact branch-and-bound proves most queries in a few nodes, but its
// uint64 placed-set masks stop at 64 services, and a rare query up to 64
// needs millions of nodes for its proof. The planner therefore routes a
// request by the work its proof takes, not by its size:
//
//   - exact (every query up to 64 services): the branch-and-bound runs
//     under a 2^19-node routing budget. A proof answers with tier "exact"
//     and optimal true.
//   - heuristic (internal/htier): a deterministic portfolio run on the
//     same prefix-bottleneck machinery as the exact core — greedy
//     constructions (minimum-epsilon append, nearest-neighbor by
//     transfer), beam search over the prefix DAG (width- and
//     budget-bounded, precedence-feasible expansions only), and
//     bottleneck local search refining the incumbent under an evaluation
//     budget. It answers a request whose exact search spent the routing
//     budget, seeded with that search's incumbent, and every query past
//     64 services. The winner is the cheapest member plan; responses
//     report tier "heuristic/<member>" ("heuristic/bb" when the exact
//     search's incumbent stands) and optimal false, since no member
//     proves anything.
//
// Model-layer support goes past the mask width: precedence relations keep
// their single-word fast path up to 64 services and switch to multi-word
// bitsets above it, so 128- or 256-service constrained instances plan,
// validate, and serve end to end. Heuristic results flow through the same
// canonical signature cache as exact ones, so byte-identical
// resubmissions hit warm: every member is budgeted in work, not time, so a
// heuristic result is always shareable. GET /v1/stats reports executed
// searches per tier in tierCounts; a request that falls back counts one
// search, under its heuristic label, with the exact attempt's nodes.
// PlannerConfig.ExactOnly (dqserve -exact-only) restores the exact-only
// planner: its exact search has no node budget, and its oversized queries
// fail with ErrQueryTooLarge (HTTP 422 through dqserve).
//
// The heuristic tier is gated on quality, not vibes: dqbench measures
// every exact-suite instance through the portfolio and fails if the
// heuristic cost lands more than 5% off the proven optimum, and the
// htier differential suite pins per-member regret bounds (greedy and
// beam within 5%, the refined portfolio within 1%) on pinned seeds.
//
// # The serving hot path
//
// At scale the common request is not a search but a warm cache hit, so
// the planner->HTTP read path is engineered to be contention-free and
// allocation-lean end to end. A warm /v1/optimize hit is: find the body in
// a memo of decoded request documents (one seeded hash and one byte
// comparison), probe two caches under shared read locks, permute the
// cached plan's indices into the caller's numbering, and copy
// pre-serialized buffers.
//
//   - Read-shared caches with O(1) inserts. The request-document memo,
//     the plan cache and the canonicalization memo (internal/ccache) take
//     a shard's read lock on a lookup, so concurrent warm hits never wait
//     for each other, and set a CLOCK touch bit with at most one CAS per
//     entry per eviction sweep. A promote-on-read LRU would take a write
//     lock per hit for exact recency ordering; the second-chance clock
//     sweep (clear touched entries, evict untouched ones in insertion
//     order) buys the same hot-set retention with no write lock on the
//     read side, and recorded trace replays against a map model pin the
//     store hit-for-hit below capacity and value-for-value above it.
//     Inserts change the shard map in place under its write lock and
//     allocate only the new entry. The store once published a fresh copy
//     of the shard map per insert, so that a lookup took no lock at all;
//     an evicting insert then cost 7–14 µs and 5 KB, and a cold request
//     inserts into all three stores after a search that often costs less.
//   - Pre-serialized responses. Every cached plan stores its JSON
//     fragment `"cost":...,"optimal":...,"signature":"...","tier":"..."`
//     built once at record time; responses are assembled in pooled
//     append-based buffers from the request's own raw query bytes (echoed
//     verbatim, never re-marshaled), the permuted plan, and the spliced
//     fragment, wrapped in the /v1 envelope on the same buffer. The one
//     field that cannot be pre-serialized is the plan itself: cached
//     plans live in canonical index space, and two callers submitting
//     relabelings of the same structure each get the plan expressed in
//     their own service numbering.
//   - A byte-exact request memo. Byte-identical bodies decode
//     identically, so internal/serve memoizes whole body -> decoded
//     document (its parsed, validated query, and the comment and query
//     echoes as sub-slices of the one stored copy of the body) for
//     /v1/optimize, each batch instance and /v1/execute. A body is
//     admitted on its second sighting, the CDN rule "cache on second
//     hit": its first valid decode leaves only a key-only ghost, so
//     first-sight traffic, which is never resubmitted, retains no body
//     copy. Entries are written only after the full strict decode and
//     validation succeeded; a hit needs a full entry, the same route and
//     a full byte comparison, under a per-process seeded maphash key that
//     crafted collisions cannot flood. The planner's canonicalization
//     memo is keyed the same way; only hashes that must agree across
//     processes (refinement colors, the fleet ring) keep FNV-1a.
//   - A one-pass first-sight decode. A body the memo does not hold is
//     decoded by one reflection-free scanner that builds the query
//     directly, where encoding/json scanned the body twice and decoded
//     the query by reflection. It accepts only the common form of the
//     documents (escape-free ASCII strings, exact keys, each at most
//     once, no null, JSON-grammar numbers that fit their fields) and
//     hands anything else to encoding/json, which decides it and words
//     every error. The batch envelope is split the same way. Fuzz targets
//     hold both to encoding/json, bit for bit.
//   - Warm-hit budgets, enforced by tests: Planner.Optimize allocates at
//     most twice per warm hit (the caller-owned plan plus pool-refill
//     headroom), and the full HTTP handler is pinned by its own
//     AllocsPerRun budget.
//
// Serving speed is measured by the perfbench module (sh
// perfbench/run.sh): warm hits, cold searches and adaptive executions
// against a standalone dqserve, every answer checked against the exact
// oracle, timings scaled by a fixed reference work. The warm batch path
// has its own handler allocation budget, and a concurrent test holds
// single and batch answers to the oracle under -race.
//
// # The adaptive loop
//
// The paper's optimum is only optimal for the measured parameters, and
// measured parameters drift: a deployed service gets slower, a filter's
// selectivity shifts with the data, a network path degrades. A cached
// plan is then the exact answer to a question nobody is asking anymore.
// The adaptive loop (internal/adapt, enabled with dqserve -adaptive)
// closes this online, in four stages that never stop the serving path:
//
//   - Observe. Execution layers POST /v1/observe reports of what their
//     services actually did — tuples in/out, busy times and call
//     attempts/failures per service, tuples and sending time per transfer
//     edge. The registry validates them with the offline calibrator's
//     fits (internal/calibrate) and adds their raw totals, matched by
//     service name, into exponentially decayed sums. Each parameter is a
//     ratio of two sums — busy seconds over tuples in for a cost, tuples
//     out over tuples in for a selectivity — so a report weighs in
//     proportion to its tuple or attempt count: a late stage that saw 20
//     tuples moves a selectivity a hundredth as far as a first stage that
//     saw 2048.
//   - Detect. Live estimates are compared against the anchor — the
//     parameter snapshot plans are currently computed from. A parameter
//     has drifted only when its deviation is both large and significant:
//     beyond -drift-delta of the anchor, and beyond four standard errors
//     at its effective sample size, the errors taken from the binomial
//     spread of a count ratio and the scatter between reports. So the
//     sampling noise of a stationary backend rarely republishes, and
//     rarely flushes the plan cache. adapt.ThresholdFromRegret can derive the
//     delta from a regret budget, by the internal/robust Monte Carlo scan
//     of perturbations around the incumbent plan.
//   - Invalidate. Crossing the threshold publishes a new generation: an
//     immutable snapshot plus a monotone counter. Every plan-cache and
//     canonicalization-memo entry is stamped with the generation it was
//     computed under (internal/ccache stores the stamp), so the publish
//     invalidates lazily — stale entries read as misses on their next
//     touch and age out; there is no stop-the-world flush, and the warm
//     hit path pays one atomic snapshot load and a stamp compare (still
//     at most 2 allocs/op, pinned by test).
//   - Re-optimize. A request that finds its entry stale replans against
//     the new snapshot's parameters (overlaid onto the client's query by
//     service name), seeding the branch-and-bound with the stale plan as
//     its initial incumbent — the previous optimum is usually a tight
//     upper bound, so the replan prunes hard from node one. The result is
//     re-cached under the new generation.
//
// GET /v1/stats exposes the loop end to end: generation, driftEvents,
// observations, live drift, and replans. The dqload drift scenario
// proves convergence against the production stack: it perturbs a hidden
// ground truth mid-run, streams execution reports of the new reality, and
// asserts served plans return to within 1% regret of the post-drift
// optimum inside a fixed observation budget — and never regress after the
// replan generation publishes. CI runs it on every push.
//
// # Surviving overload
//
// A planner that is correct and fast at its rated load can still fall
// over past it: unbounded concurrent searches convoy on the CPU, every
// request's latency grows without bound, and a restart throws away the
// cache that made the node serviceable in the first place. The overload
// path (internal/admit, enabled with dqserve -admit-max-concurrent)
// bounds the damage with three mechanisms that degrade service
// deliberately instead of collapsing:
//
//   - Cost-aware admission control. A fixed-size slot pool bounds
//     concurrent optimizes and a bounded FIFO queue absorbs bursts.
//     Requests are classed by the planner's own cache probe before they
//     wait: warm requests (a cache hit is waiting — microseconds of
//     work) are admitted as long as any queue space remains, cold
//     requests (a full search — orders of magnitude dearer) are shed
//     first, both when the queue passes the cold-share watermark and by
//     displacement when a warm arrival finds the queue full of colds.
//     Per-tenant fairness caps any one X-Tenant's share of the queue.
//     Every shed is an HTTP 429 with a Retry-After header and a typed
//     machine-readable reason (queue-full, cold-shed, tenant-over-share,
//     wait-timeout), counted per reason in the /v1/stats overload block —
//     load shedding is a contract, not an accident.
//   - Stale-serve degraded mode (-stale-serve). Under the adaptive loop
//     a generation publish turns the whole cache stale at once; at high
//     load the resulting re-optimize storm is exactly what admission
//     would shed. Instead of a 429, a shed re-optimize whose previous-
//     generation plan is still resident is answered from it immediately,
//     marked "stale": true, and a background replan is enqueued (bounded
//     queue, one worker slot) so the entry converges to the new
//     generation off the request path. The stale answer is the exact
//     optimum of the question as of the previous generation — degraded
//     means older, never wrong.
//   - Plan-cache snapshots (-snapshot-path). The cache is the node's
//     warm-up capital; a deploy should not forfeit it. The planner
//     serializes cache and canonicalization memo to a versioned,
//     checksummed on-disk format ("SOP1"), dumped periodically and on
//     SIGTERM, and restored on boot (a corrupt or mismatched snapshot
//     logs and boots cold — never takes the node down). A restarted
//     node answers its working set from cache in its first window
//     instead of re-searching it at the worst possible moment.
//
// The dqload overload scenario gates the whole stack: it calibrates
// the server's saturation rate, offers 4x that, and asserts the node
// survives with every shed a typed 429, every admitted response
// oracle-verified, and every stale response the exact previous-
// generation optimum. The dqload restart scenario proves a >= 90%
// first-window hit rate across a snapshot round-trip. CI runs both on
// every push.
//
// # Executing plans
//
// Planning answers "in what order"; the streaming executor
// (internal/exec, enabled with dqserve -exec-backend) actually runs the
// plan: tuples flow through the ordered services in blocks over bounded
// queues — the same credit-based backpressure discipline the simulator
// models — against a pluggable Backend (an HTTP backend POSTs each block
// to /call/{service} on a base URL; a deterministic in-process mock
// hash-filters tuples for tests and load scenarios). POST /v1/execute
// optimizes (or reuses the cached plan for) the submitted query, streams
// the requested tuple count through the resulting plan, and feeds the
// per-stage execution report straight into the adaptive registry — with
// -adaptive, serving traffic alone closes the observe-detect-replan
// loop, no synthetic /v1/observe payloads required.
//
// Real backends fail, so every call is guarded by an escalation ladder
// — hedge, retry, break, fail over, degrade — where each rung is
// strictly cheaper for the caller than the next:
//
//   - Hedged calls. When the backend exposes replicas (ReplicaBackend)
//     and a call outlives its hedge delay — fixed, or derived per
//     service from a windowed latency quantile — a second attempt races
//     it against another replica; first success wins and the loser is
//     canceled. A per-request hedge budget and a global hedge-rate cap
//     keep tail-chasing from multiplying backend load; like backoff
//     jitter, hedge decisions are deterministic given the seed and the
//     latency history.
//   - Retries with exponential backoff and jitter, paid from a
//     per-request budget (one flapping service cannot multiply the
//     worst case by the plan length), under a per-call timeout.
//   - A per-service circuit breaker that opens on consecutive failures,
//     sheds calls without touching the backend while open, and admits a
//     single half-open probe per cooldown to decide between closing and
//     re-opening.
//   - Plan-aware failover (Options.Failover). When a stage fails past
//     the retry budget or is shed by an open breaker, the executor
//     exploits the problem's own structure instead of giving up: the
//     executed prefix is kept, the residual query over the unfinished
//     suffix is re-solved with the failed service deferred to the very
//     end (maximizing its recovery time), and a rescue pipeline runs
//     the new suffix under a fresh retry budget. A clean rescue returns
//     the FULL answer — the response carries a FailoverReport instead
//     of a Degraded marker. Only when precedence constraints make
//     deferral infeasible, or the rescue itself fails, does the request
//     degrade.
//   - Typed degradation. When a stage fails past the whole ladder (or
//     the end-to-end deadline expires) the request degrades instead of
//     erroring: upstream stages stop, in-flight work drains, and the
//     caller receives every tuple that completed all stages plus a
//     typed Degraded marker naming the stage, service, and reason — a
//     degraded result is a subset of the true answer, never a wrong
//     one.
//
// Failures also feed back into planning: execution reports carry
// per-service attempt, failure, and latency-spike tallies, and the
// adaptive registry (internal/adapt) fits error and spike rates from
// them, pricing unreliability into the effective cost as
// cost x E[attempts] — a flaky service gets demoted in subsequent plans
// by the same machinery that reacts to cost drift, and reliability
// drift alone publishes a new statistics generation. GET /v1/healthz
// reports readiness the same way degradation works: always 200, with
// status "degraded" and machine-readable reasons (breaker-open:
// <service>, failover-active:<service>, hedge-rate-saturated, replan-
// queue-saturated, snapshot-restore-failed) as the load balancer's cue
// to deprioritize rather than kill the node.
//
// The fault-injection harness (internal/faultinject) wraps any backend
// with a deterministic, seedable fault plan — error rates, latency
// spikes, trickle delays, and blackout windows, all pure functions of
// (seed, service, call index), with independent per-replica streams so
// hedges against healthy replicas replay identically — so failure
// behavior is testable byte-for-byte reproducibly. Three dqload
// scenarios gate the stack in CI: execute drives POST /v1/execute traffic
// through a mock backend whose ground truth drifts mid-run and asserts
// served plans re-converge on execution feedback alone; chaos runs a
// fault plan (flaky, spiky, and blacked-out services at once) and
// asserts every response is a 200, every degraded result is typed and
// stage-consistent, breakers open and recover, /v1/healthz surfaces the
// open breaker while it lasts, and no goroutines leak; and failover
// blacks out a mid-plan service while spiking a replicated one and
// asserts hedge decisions replay deterministically, every non-degraded
// response is the exact full answer, at least half of the would-be-
// degraded requests are rescued by plan-aware failover, and reliability
// pricing demotes the flaky service to match an oracle re-solve of the
// registry's own overlay.
//
// # The fleet
//
// One warm node serves its working set in microseconds; internal/fleet
// makes N of them one service. Peers (dqserve -peers, -fleet-id)
// consistent-hash the canonical plan-signature space — FNV-64 over the
// same WL-refinement signature the cache is keyed by, 64 virtual nodes
// per peer — so every node independently computes the same owner for
// every query with no coordinator and no routing state to reconcile.
// Peers speak newline-delimited JSON frames over one TCP connection per
// peer pair (internal/fleet's peer protocol) with a fleet-ID handshake (a
// staging node dialing prod is refused at hello), and all forwarded
// requests speak only the /v1 envelope.
//
// A /v1/optimize request landing on the wrong node is forwarded to the
// owner and the owner's response — status, Retry-After, envelope bytes
// — is relayed verbatim: one wrap, by construction, because the relay
// path never re-encodes (a shed on the owner reaches the client as the
// owner's own 429). Forwarding is one hop at most: a forwarded request
// is always served locally by its receiver. When the owner solves a
// query fresh it exports the cache entry as a single-entry SOP1
// document and pushes it, stamped with the owner's statistics
// generation, to its replica set; a replica that already moved past
// that generation stores the entry stale rather than serve a plan
// fitted to parameters it no longer holds. Replicated entries let
// non-owners answer repeat traffic locally — the cross-node warm hit —
// and let reads survive the owner's death. When a forward fails (peer
// died mid-flight), the forwarder solves locally instead: a correct,
// colder answer, never an error; the consistent-hash ring needs no
// rebalancing because ownership is a pure function of the peer list.
//
// The adaptive loop crosses nodes the same way: when any peer's
// registry publishes a new statistics generation (a /v1/observe ingest
// that crossed the drift threshold), the fitted anchor snapshot is
// broadcast to every peer. Installing it bumps the local generation,
// and the generation-stamped cache gives lazy fleet-wide invalidation
// for free — every entry fitted under the old generation simply stops
// matching, exactly as on a single node. The observer and the
// replanner can be different machines: reports land wherever the
// executor runs, the re-solve happens wherever the signature hashes.
// The dqload fleet scenario gates this in CI in two phases: three
// self-hosted peers must aggregate >= 2x a single-node reference and
// clear a cross-node cache hit floor, and post-drift convergence must
// reach <= 1% regret with observer and replanner on different peers,
// every sampled response oracle-verified.
//
// The HTTP surface is versioned: every endpoint lives under /v1
// (/v1/optimize, /v1/optimize/batch, /v1/execute, /v1/observe,
// /v1/stats, /v1/healthz, /v1/call/{service}) and answers one envelope
// — {"data":...,"error":null} on success, {"data":null,"error":
// {"code","message"}} on failure, plus "reason" and "retryAfterSeconds"
// on an admission shed — with one error-mapping table shared by the
// local and forwarded paths. The facade consolidates server construction
// into NewServeHandler(ServeOptions) and NewFleetPeer(FleetOptions).
//
// # The search hot path
//
// The exact search is engineered so a dfs node costs tens of nanoseconds
// and allocates nothing:
//
//   - One cold start. The search starts from rho = +Inf. Nothing can
//     prune its first descent, so that descent commits an incumbent
//     within n-1 nodes, and dominance memoization recovers what a
//     heuristic seed would save: a greedy-plus-local-search seed measured
//     slower than the cold search on 14 of 15 sequential benchmark cells.
//     Options.InitialIncumbent seeds rho where a plan comes for free: an
//     adaptive replan passes the stale generation's plan. A seed never
//     changes the proven optimum (a property test holds seeded and cold
//     runs to the same cost on every instance family).
//   - Incremental tight bounds. The Lemma 2 closure bound epsilonBar and
//     the optional completion lower bound need, per remaining service,
//     its max/min transfer to the other remaining services. Instead of an
//     O(R^2) rescan per node, each service's transfers are presorted once
//     and walked to the first service whose placed bit is clear — same
//     float64, bitwise identical bounds (a differential test compares
//     against the retained naive implementations with ==), at ~O(R) per
//     node. The closure test additionally short-circuits at the first
//     bound term exceeding epsilon.
//   - Dominance memoization. A transposition table prunes the tree
//     itself: for the bottleneck objective two prefixes over the
//     same placed set, same last service, and bitwise-equal selectivity
//     product have identical futures, so only the arrival with the
//     smallest finalized bottleneck is ever extended — later arrivals are
//     cut with their whole subtrees (6–26x fewer nodes on the hard
//     benchmark cells, at bit-identical optima and bit-identical plans; a
//     differential test pins both). The table is memory-capped with
//     depth-banded admission and clock-hand eviction, belongs to one
//     search at a time, and Options.DisableDominance restores the raw
//     tree for ablations. Every search draws a 128 KiB table from one
//     pool, whatever its n, and the table grows four times larger (up to
//     its cap-bound size, 8 MiB from n = 18) only when a full set would
//     otherwise evict, so the search prunes exactly as with the full
//     table. A returned table drops what it grew into and is emptied in
//     O(1) by advancing a generation stamped into every slot, so
//     first-sight queries no longer allocate and zero a table sized by
//     their state space.
//   - A zero-allocation node loop. Query data is flattened into dense
//     per-service arrays, the remaining set is iterated via
//     bits.TrailingZeros64, and incumbent plans reuse a per-search
//     buffer. testing.AllocsPerRun pins allocations per node at zero.
//
// The benchmark baseline lives in BENCH_search.json (regenerate with
// cmd/dqbench -json); CI diffs every push against it.
//
// Beyond optimization the library bundles the full evaluation substrate
// of the paper's experiments: baseline algorithms (exhaustive, greedy,
// the Srivastava et al. uniform-communication optimum, local search,
// simulated annealing), a discrete-event simulator that validates the
// cost model (Simulate), wall-clock runs of a plan on the production
// executor with every service call sleeping its modeled cost, in-process
// or over loopback HTTP (Execute), workload generators, and a
// bottleneck-TSP solver. exper.All() lists the reproduced experiments,
// internal/exper/README.md documents them, and cmd/dqbench -markdown
// prints their tables.
package serviceordering
