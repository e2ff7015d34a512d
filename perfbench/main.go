// Command perfbench is the repository's benchmark. perfbench/run.sh
// builds cmd/dqserve and this program from the checkout and runs it:
//
//	sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it starts dqserve as its own process, sends the
// workload's request list from this process over loopback HTTP in a
// closed loop, checks every answer against an exact oracle, and prints
// the end-to-end metrics. With --trace 1 it replays the same list
// in-process with spans around each layer's public calls and prints the
// per-layer metrics. The last line of standard output is always the
// result as one JSON object. README.md describes the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: warm-hits, cold-search or execute-adaptive")
	seed := fs.Int64("seed", defaultSeed, "seed the request list is generated from")
	seconds := fs.Int("seconds", 10, "nominal window length: the window sends seconds × the workload's rate requests")
	trace := fs.Int("trace", 0, "0: end-to-end run against dqserve; 1: traced in-process replay printing per-layer metrics")
	bin := fs.String("dqserve", "", "dqserve binary to run (perfbench/run.sh passes the one it built)")
	record := fs.String("write-answers", "", "write the default seed's oracle answers to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := writeAnswers(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload warm-hits|cold-search|execute-adaptive -seed N -seconds S -trace 0|1 [-dqserve BIN]")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(ctx, stdout, w, *seed, *seconds, *bin)
	} else {
		res, err = runTraced(ctx, stdout, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupRepeats is how many times a run sets up a server; setup_s is the
// median.
const setupRepeats = 5

// windowBlocks is the number of blocks a window is measured in.
const windowBlocks = 10

// blockStats are the measurements of one window block.
type blockStats struct {
	requests   int
	throughput float64 // requests per second of the block's wall time
	p50, p90   float64 // client-side latency, microseconds
	beyondP90  int     // samples above the p90
	cpuPerReq  float64 // server CPU microseconds per request
	slowdown   float64 // the reference work's time around the block ÷ nominal
}

func newBlockStats(outs []outcome, wall, serverCPU time.Duration, slowdown float64) blockStats {
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err == nil {
			lat = append(lat, float64(o.lat.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(lat)
	n := float64(len(outs))
	return blockStats{
		requests:   len(outs),
		throughput: n / wall.Seconds(),
		p50:        quantile(lat, 0.50),
		p90:        quantile(lat, 0.90),
		beyondP90:  len(lat) - int(math.Ceil(0.9*float64(len(lat)))),
		cpuPerReq:  float64(serverCPU.Nanoseconds()) / 1e3 / n,
		slowdown:   slowdown,
	}
}

// runEndToEnd measures w against a dqserve process.
func runEndToEnd(ctx context.Context, out io.Writer, w workload, seed int64, seconds int, bin string) (*result, error) {
	fmt.Fprintf(out, "perfbench %s: seed %d, end-to-end against dqserve %v\n", w.name, seed, w.serverArgs)
	genStart := time.Now()
	l, err := buildList(w, seed, w.windowLen(seconds))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "request list: %d distinct queries, %d priming + %d window requests, generated and solved by the oracle in %.1fs (not part of setup_s)\n",
		len(l.entries), len(l.prime), len(l.window), time.Since(genStart).Seconds())
	if l.draws != nil {
		fmt.Fprintf(out, "optimize queries: %s\n", l.draws)
	}
	var t tally
	if err := t.checkRecorded(w, l, seed); err != nil {
		return nil, err
	}
	prime, window := bodiesOf(l, l.prime), bodiesOf(l, l.window)
	keep := keepOptimize
	if w.path == "/v1/execute" {
		keep = keepAll
	}

	// Set up several times, each on a fresh process: spawn, wait until
	// ready, send the priming requests. The last server is measured. The
	// reference work is timed before the first set-up and after every
	// set-up and block, so each has a timing on either side. The first
	// timing is a warm-up: it would find the freshly built table in cache.
	if _, err := timeReference(); err != nil {
		return nil, err
	}
	ref, err := timeReference()
	if err != nil {
		return nil, err
	}
	refs := []reference{ref}
	var setups, setupsRaw []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		srv, err = startServer(ctx, bin, w.serverArgs, w.conns)
		if err != nil {
			return nil, err
		}
		primeOut, _ := drive(ctx, srv.client, srv.base+w.path, prime, w.conns, keep)
		raw := time.Since(t0).Seconds()
		t.checkAll(w.path, l, l.prime, primeOut, fmt.Sprintf("set-up %d priming", i))
		if i < setupRepeats-1 {
			srv.stop()
			srv = nil
		}
		if ref, err = timeReference(); err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		setupsRaw = append(setupsRaw, raw)
		setups = append(setups, raw/slowdown(refs[i], refs[i+1]))
	}

	before, err := scrapeStats(srv.client, srv.base)
	if err != nil {
		return nil, err
	}
	// The window runs as windowBlocks consecutive blocks of equal request
	// counts; every metric is the median over the blocks, so a burst of
	// machine noise that slows a few blocks does not move it.
	outs := make([]outcome, 0, len(window))
	var blocks []blockStats
	var elapsed, genCPU time.Duration
	for b := 0; b < windowBlocks; b++ {
		part := window[b*len(window)/windowBlocks : (b+1)*len(window)/windowBlocks]
		cpu0, err := processCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		gen0 := selfCPU()
		o, wall := drive(ctx, srv.client, srv.base+w.path, part, w.conns, keep)
		cpu1, err := processCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		genCPU += selfCPU() - gen0
		elapsed += wall
		outs = append(outs, o...)
		if ref, err = timeReference(); err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		blocks = append(blocks, newBlockStats(o, wall, cpu1-cpu0, slowdown(refs[len(refs)-2], ref)))
	}
	rss, err := peakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := scrapeStats(srv.client, srv.base)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.checkAll(w.path, l, l.window, outs, "window")

	blockMedian := func(f func(blockStats) float64) float64 {
		v := make([]float64, len(blocks))
		for i, b := range blocks {
			v[i] = f(b)
		}
		return p50(v)
	}
	m := map[string]metric{
		"throughput_rps":        {blockMedian(func(b blockStats) float64 { return b.throughput * b.slowdown }), "1/s"},
		"latency_p50_us":        {blockMedian(func(b blockStats) float64 { return b.p50 / b.slowdown }), "us"},
		"latency_p90_us":        {blockMedian(func(b blockStats) float64 { return b.p90 / b.slowdown }), "us"},
		"server_cpu_us_per_req": {blockMedian(func(b blockStats) float64 { return b.cpuPerReq / b.slowdown }), "us"},
		"server_rss_mb":         {float64(rss) / (1 << 20), "MB"},
		"setup_s":               {p50(setups), "s"},
	}

	fmt.Fprintf(out, "reference work, nominal %.0f ms: %s\n", ms(nominalReference), fmtRefs(refs))
	fmt.Fprintf(out, "setup: %d fresh servers, spawn to ready plus %d priming requests: raw %s s, at reference speed %s s\n",
		setupRepeats, len(prime), fmtList(setupsRaw, "%.3f"), fmtList(setups, "%.3f"))
	fmt.Fprintf(out, "window: %d requests in %d blocks, %d closed-loop connection(s), %.3f s wall\n", len(window), windowBlocks, w.conns, elapsed.Seconds())
	fmt.Fprintf(out, "  raw figures per block, and the slowdown they are divided by:\n")
	for i, b := range blocks {
		fmt.Fprintf(out, "  block %2d: %6d requests %10.1f req/s  p50 %9.1f us  p90 %9.1f us (%d beyond)  server cpu %8.1f us/req  slowdown %.3f\n",
			i, b.requests, b.throughput, b.p50, b.p90, b.beyondP90, b.cpuPerReq, b.slowdown)
	}
	fmt.Fprintf(out, "raw block medians: %.1f req/s, p50 %.1f us, p90 %.1f us, server cpu %.1f us/req; setup %.3f s\n",
		blockMedian(func(b blockStats) float64 { return b.throughput }), blockMedian(func(b blockStats) float64 { return b.p50 }),
		blockMedian(func(b blockStats) float64 { return b.p90 }), blockMedian(func(b blockStats) float64 { return b.cpuPerReq }), p50(setupsRaw))
	fmt.Fprintf(out, "load generator: %.1f us cpu per request, busy %.2f of %d cores; server %.1f us per request (raw block median)\n",
		float64(genCPU.Microseconds())/float64(len(window)), genCPU.Seconds()/elapsed.Seconds(), runtime.NumCPU(),
		blockMedian(func(b blockStats) float64 { return b.cpuPerReq }))
	fmt.Fprintf(out, "server counters over the window: %s\n", before.delta(after, len(window)))
	printMetrics(out, "end-to-end (at reference speed)", m)
	return t.result(out, m), nil
}

// fmtRefs lists the reference timings, then the median of each part.
func fmtRefs(refs []reference) string {
	var total, mem, alloc, net []float64
	for _, r := range refs {
		total = append(total, ms(r.total()))
		mem = append(mem, ms(r.mem))
		alloc = append(alloc, ms(r.alloc))
		net = append(net, ms(r.net))
	}
	return fmt.Sprintf("%s ms; median parts: memory %.2f, allocation %.2f, loopback %.2f ms",
		fmtList(total, "%.1f"), p50(mem), p50(alloc), p50(net))
}

// result reports the tally's failures and assembles the run's result.
func (t *tally) result(out io.Writer, m map[string]metric) *result {
	fmt.Fprintf(out, "answers: %d checked, %d failed\n", t.attempted, t.failed)
	for _, e := range t.examples {
		fmt.Fprintln(out, "  failed:", e)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func bodiesOf(l *requestList, idx []int) [][]byte {
	b := make([][]byte, len(idx))
	for i, k := range idx {
		b[i] = l.entries[k].body
	}
	return b
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func fmtList(v []float64, format string) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(format, x)
	}
	return s
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// serverStats is the part of dqserve's /v1/stats the report prints.
type serverStats struct {
	Hits, Misses, Evictions, Searches, Replans, MemoHits int64
	Generation                                           uint64
	TierCounts                                           map[string]int64
	QueryMemoHits                                        int64
	Adaptive                                             *struct{ DriftEvents int64 }
	Exec                                                 *struct{ Calls, Retries int64 }
}

// scrapeStats reads /v1/stats from the server at base.
func scrapeStats(client *http.Client, base string) (*serverStats, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct{ Data serverStats }
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &doc.Data, nil
}

// delta renders the counters that moved between two scrapes.
func (b *serverStats) delta(a *serverStats, requests int) string {
	heuristic := int64(0)
	for tier, c := range a.TierCounts {
		if tier != "exact" {
			heuristic += c - b.TierCounts[tier]
		}
	}
	s := fmt.Sprintf("plan-cache hits %d misses %d evictions %d, searches %d (heuristic %d), replans %d, planner memo hits %d, query memo hits %d",
		a.Hits-b.Hits, a.Misses-b.Misses, a.Evictions-b.Evictions, a.Searches-b.Searches, heuristic,
		a.Replans-b.Replans, a.MemoHits-b.MemoHits, a.QueryMemoHits-b.QueryMemoHits)
	if a.Adaptive != nil && b.Adaptive != nil {
		s += fmt.Sprintf(", generations published %d (now %d)", a.Adaptive.DriftEvents-b.Adaptive.DriftEvents, a.Generation)
	}
	if a.Exec != nil && b.Exec != nil {
		s += fmt.Sprintf(", backend calls %d, retries %d", a.Exec.Calls-b.Exec.Calls, a.Exec.Retries-b.Exec.Retries)
	}
	return s + fmt.Sprintf(" (%d requests)", requests)
}
