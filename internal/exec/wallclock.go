package exec

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"serviceordering/internal/model"
)

// WallClockConfig parameterizes RunWallClock.
type WallClockConfig struct {
	// Tuples is the number of input tuples streamed through the plan.
	Tuples int

	// BlockSize is the number of tuples per backend call.
	BlockSize int

	// QueueBlocks bounds each stage's input queue, in blocks.
	QueueBlocks int

	// UnitDuration converts one model cost unit into wall-clock time: a
	// service with Cost 2 sleeps 2*UnitDuration per tuple. Zero runs
	// without sleeping (tuple counts only).
	UnitDuration time.Duration

	// HTTP serves the backend on a loopback listener through
	// BackendHandler and calls it with HTTPBackend — the production
	// executor-to-service wire. Otherwise calls stay in-process.
	HTTP bool
}

func (c WallClockConfig) validate() error {
	if c.Tuples <= 0 {
		return fmt.Errorf("exec: Tuples = %d, want > 0", c.Tuples)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("exec: BlockSize = %d, want > 0", c.BlockSize)
	}
	if c.QueueBlocks <= 0 {
		return fmt.Errorf("exec: QueueBlocks = %d, want > 0", c.QueueBlocks)
	}
	if c.UnitDuration < 0 {
		return fmt.Errorf("exec: UnitDuration = %v, want >= 0", c.UnitDuration)
	}
	return nil
}

// WallClockStage is one plan stage's account in a wall-clock run.
type WallClockStage struct {
	// Service is the service index; Position its plan position.
	Service  int
	Position int

	// TuplesIn and TuplesOut count processed and emitted tuples.
	TuplesIn  int64
	TuplesOut int64

	// Busy is the modeled work the stage slept through (the calls' wall
	// time when UnitDuration is 0).
	Busy time.Duration
}

// WallClockReport is the outcome of a wall-clock run.
type WallClockReport struct {
	// Makespan is the wall-clock time of the whole execution.
	Makespan time.Duration

	// TuplesOut counts result tuples.
	TuplesOut int64

	// MeasuredPeriod is Makespan / Tuples, the observed per-input-tuple
	// time; PredictedPeriod is Eq. (1)'s bottleneck cost converted
	// through UnitDuration, the model's prediction of it.
	MeasuredPeriod  time.Duration
	PredictedPeriod time.Duration

	// Stages holds per-stage accounts in plan order.
	Stages []WallClockStage
}

// RunWallClock executes plan over q on the Executor, every service call
// sleeping its modeled cost, so Eq. (1)'s bottleneck term becomes
// wall-clock makespan, and reports measured against predicted period. It
// fails on invalid input, a cancelled ctx, or a degraded execution.
func RunWallClock(ctx context.Context, q *model.Query, plan model.Plan, cfg WallClockConfig) (*WallClockReport, error) {
	return runWallClock(ctx, q, plan, cfg, nil)
}

// runWallClock is RunWallClock with an optional backend wrapper, through
// which tests inject faults.
func runWallClock(ctx context.Context, q *model.Query, plan model.Plan, cfg WallClockConfig, wrap func(Backend) Backend) (*WallClockReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validatePlanInput(q, plan); err != nil {
		return nil, err
	}
	wq, wplan := wallClockQuery(q, plan)
	wb := newWallClockBackend(wq, wplan, cfg.UnitDuration)
	var b Backend = wb
	if wrap != nil {
		b = wrap(b)
	}
	if cfg.HTTP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("exec: wall-clock listener: %w", err)
		}
		srv := &http.Server{Handler: BackendHandler(b)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(ln) // http.ErrServerClosed once Close below runs
		}()
		defer func() {
			srv.Close() // closes the listener and every connection
			<-served
		}()
		b = &HTTPBackend{BaseURL: "http://" + ln.Addr().String()}
	}

	ex := New(b, Options{
		BlockSize:   cfg.BlockSize,
		QueueBlocks: cfg.QueueBlocks,
		CallTimeout: wb.maxCall(cfg.BlockSize) + time.Minute,
		RetryBudget: -1,
	})
	res, err := ex.Execute(ctx, wq, wplan, Tuples(cfg.Tuples))
	if err != nil {
		return nil, fmt.Errorf("exec: wall-clock run: %w", err)
	}
	off := len(wplan) - len(plan) // 1 when a source stage leads the plan
	if d := res.Degraded; d != nil {
		return nil, fmt.Errorf("exec: wall-clock run failed at %s: %s: %s", stageLabel(q, plan, d.Position-off), d.Reason, d.Err)
	}

	rep := &WallClockReport{
		Makespan:        res.Elapsed,
		TuplesOut:       res.TuplesOut,
		MeasuredPeriod:  res.Elapsed / time.Duration(cfg.Tuples),
		PredictedPeriod: time.Duration(q.Cost(plan) * float64(cfg.UnitDuration)),
		Stages:          make([]WallClockStage, len(plan)),
	}
	for pos, s := range plan {
		st := res.Stages[pos+off]
		rep.Stages[pos] = WallClockStage{Service: s, Position: pos, TuplesIn: st.TuplesIn, TuplesOut: st.TuplesOut, Busy: st.BusyProcessing}
	}
	return rep, nil
}

// stageLabel names the original plan position pos for an error message:
// -1 is the source stage, anything else out of range a failure no single
// stage owns (a deadline seen between calls).
func stageLabel(q *model.Query, plan model.Plan, pos int) string {
	switch {
	case pos == -1 && q.SourceTransfer != nil:
		return "the source stage"
	case pos < 0 || pos >= len(plan):
		return "no single stage"
	}
	s := plan[pos]
	return fmt.Sprintf("stage %d (service %d %q)", pos, s, q.Services[s].Name)
}

// wallClockQuery returns the query and plan the Executor runs: a copy of q
// whose services are named by their index (model names are optional and
// may repeat, while the Executor keys breakers and the backend by name).
// When q has a SourceTransfer, the copy appends the source as service n —
// cost 0, selectivity 1, transfer row SourceTransfer, transfer column 0 —
// and puts it first in the plan, so the source term stays a pipeline stage
// of its own and the copy's Eq. (1) cost equals q.Cost(plan).
func wallClockQuery(q *model.Query, plan model.Plan) (*model.Query, model.Plan) {
	wq := q.Clone()
	for i := range wq.Services {
		wq.Services[i].Name = strconv.Itoa(i)
	}
	if q.SourceTransfer == nil {
		return wq, plan
	}
	n := q.N()
	wq.Services = append(wq.Services, model.Service{Name: strconv.Itoa(n), Cost: 0, Selectivity: 1})
	for i := range wq.Transfer {
		wq.Transfer[i] = append(wq.Transfer[i], 0)
	}
	wq.Transfer = append(wq.Transfer, append(wq.SourceTransfer, 0))
	wq.SourceTransfer = nil
	if wq.SinkTransfer != nil {
		wq.SinkTransfer = append(wq.SinkTransfer, 0)
	}
	return wq, append(model.Plan{n}, plan...)
}

// wallClockBackend realizes a query's costs as sleeps. A call over k
// tuples at plan position i sleeps (c_i*k + t_i,next*out)*unit/m_i, where
// t_i,next is the transfer cost to the plan successor (SinkTransfer, or 0,
// for the last stage), out the survivor count and m_i the service's
// thread count: the busy time of one stage of the paper's pipeline with
// its m-thread pool folded into the divisor. Survivors follow sim's
// FilterDeterministic rule, so per-stage counts match the simulator's.
type wallClockBackend struct {
	unit     time.Duration
	services []wallClockService // indexed by service index
}

type wallClockService struct {
	cost, sigma, send, threads float64

	// seen counts the tuples the service has processed: the index of the
	// deterministic filter. Atomic because one stage's calls may run on
	// different goroutines.
	seen atomic.Int64
}

func newWallClockBackend(q *model.Query, plan model.Plan, unit time.Duration) *wallClockBackend {
	b := &wallClockBackend{unit: unit, services: make([]wallClockService, q.N())}
	for pos, s := range plan {
		svc := &b.services[s]
		if pos+1 < len(plan) {
			svc.send = q.Transfer[s][plan[pos+1]]
		} else if q.SinkTransfer != nil {
			svc.send = q.SinkTransfer[s]
		}
		svc.cost = q.Services[s].Cost
		svc.sigma = q.Services[s].Selectivity
		svc.threads = q.Services[s].ThreadCount()
	}
	return b
}

// maxCall bounds one call's sleep from above: a block of k tuples yields
// at most k*sigma+1 survivors under the deterministic filter.
func (b *wallClockBackend) maxCall(k int) time.Duration {
	var worst time.Duration
	for i := range b.services {
		svc := &b.services[i]
		worst = max(worst, b.sleep(svc, k, int(float64(k)*svc.sigma)+1))
	}
	return worst
}

func (b *wallClockBackend) sleep(svc *wallClockService, in, out int) time.Duration {
	return time.Duration((svc.cost*float64(in) + svc.send*float64(out)) * float64(b.unit) / svc.threads)
}

// Call implements Backend.
func (b *wallClockBackend) Call(ctx context.Context, service string, in []Tuple) (CallResult, error) {
	idx, err := strconv.Atoi(service)
	if err != nil || idx < 0 || idx >= len(b.services) {
		return CallResult{}, fmt.Errorf("exec: wall-clock backend: unknown service %q", service)
	}
	svc := &b.services[idx]
	first := svc.seen.Add(int64(len(in))) - int64(len(in))
	out := make([]Tuple, 0, len(in))
	for k, t := range in {
		j := float64(first + int64(k))
		for c := int(math.Floor((j+1)*svc.sigma) - math.Floor(j*svc.sigma)); c > 0; c-- {
			out = append(out, t)
		}
	}
	d := b.sleep(svc, len(in), len(out))
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return CallResult{}, ctx.Err()
		}
	}
	return CallResult{Tuples: out, Processing: d}, nil
}
