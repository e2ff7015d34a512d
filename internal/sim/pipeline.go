package sim

import (
	"fmt"
	"math/rand"

	"serviceordering/internal/model"
)

// Config parameterizes a simulation run. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// Tuples is the number of input tuples the source emits.
	Tuples int

	// BlockSize is the number of tuples per transfer block (the paper's
	// remark: tuples are transmitted in blocks, and the per-tuple
	// transfer cost is the block cost divided by the block size).
	BlockSize int

	// QueueCapacityBlocks bounds every stage's input queue, in blocks; a
	// sender stalls (credit-based backpressure) when the receiver is
	// full.
	QueueCapacityBlocks int

	// Filtering selects deterministic thinning or Bernoulli sampling.
	Filtering FilterMode

	// Seed drives the Bernoulli mode's PRNG.
	Seed int64

	// EdgeLatency is an optional fixed block propagation delay. It
	// models wire latency: it delays arrivals but does not occupy the
	// sender, so it affects pipeline fill time, not throughput.
	EdgeLatency float64
}

// DefaultConfig returns the configuration used by the experiment suite:
// 10k tuples, blocks of 32, queues of 4 blocks, deterministic filtering.
func DefaultConfig() Config {
	return Config{Tuples: 10000, BlockSize: 32, QueueCapacityBlocks: 4, Filtering: FilterDeterministic, Seed: 1}
}

func (c Config) validate() error {
	if c.Tuples <= 0 {
		return fmt.Errorf("sim: Tuples = %d, want > 0", c.Tuples)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("sim: BlockSize = %d, want > 0", c.BlockSize)
	}
	if c.QueueCapacityBlocks <= 0 {
		return fmt.Errorf("sim: QueueCapacityBlocks = %d, want > 0", c.QueueCapacityBlocks)
	}
	if c.EdgeLatency < 0 {
		return fmt.Errorf("sim: EdgeLatency = %v, want >= 0", c.EdgeLatency)
	}
	return nil
}

// StageMetrics reports one pipeline stage's activity.
type StageMetrics struct {
	// Service is the service index (into the query), Position its plan
	// position.
	Service  int
	Position int

	// TuplesIn and TuplesOut count processed and emitted tuples.
	TuplesIn  int64
	TuplesOut int64

	// BusyProcessing and BusySending are total thread-busy durations;
	// Blocked is time spent stalled on a full downstream queue.
	BusyProcessing float64
	BusySending    float64
	Blocked        float64

	// Utilization is (BusyProcessing+BusySending)/makespan, the
	// fraction of wall-clock the stage's single thread was busy.
	Utilization float64
}

// Report is the outcome of one simulation run.
type Report struct {
	// Makespan is the virtual time at which the sink received the
	// end-of-stream marker.
	Makespan float64

	// TuplesIn is the source tuple count; TuplesOut the tuples that
	// reached the sink.
	TuplesIn  int64
	TuplesOut int64

	// MeasuredPeriod is Makespan/TuplesIn, the average time per input
	// tuple; it converges to PredictedBottleneck as TuplesIn grows.
	MeasuredPeriod float64

	// PredictedBottleneck is Eq. (1)'s cost for the simulated plan.
	PredictedBottleneck float64

	// SourceBusy is the total time the source spent shipping blocks.
	SourceBusy float64

	// Stages holds per-stage metrics in plan order.
	Stages []StageMetrics
}

// stage is the runtime state of one service in the pipeline.
type stage struct {
	idx      int // plan position
	service  int
	procCost float64
	sendCost float64 // per-tuple transfer cost to the successor (or sink)
	filt     *filter

	inQ       int64 // tuples waiting
	inCap     int64 // queue bound in tuples
	eosIn     bool  // upstream finished
	busy      bool  // thread occupied (processing or sending)
	blocked   bool  // send stalled on full downstream queue
	outBuf    int   // tuples accumulated toward the next block
	pending   int   // block size awaiting delivery while blocked
	eosOut    bool  // EOS forwarded downstream
	blockFrom float64

	metrics StageMetrics
}

// pipeline wires the source, stages and sink together over one engine.
type pipeline struct {
	eng    *engine
	cfg    Config
	stages []*stage

	srcRemaining int64
	srcBusy      bool
	srcSendCost  float64 // per-tuple source transfer cost
	srcBusyTotal float64
	srcEOSSent   bool

	sinkTuples int64
	sinkEOS    bool
	makespan   float64
}

// Run simulates the execution of plan p over query q and reports measured
// timings alongside the model's prediction.
func Run(q *model.Query, p model.Plan, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid query: %w", err)
	}
	if err := p.Validate(q); err != nil {
		return nil, fmt.Errorf("sim: invalid plan: %w", err)
	}
	for i, svc := range q.Services {
		if svc.Threads > 1 {
			return nil, fmt.Errorf("sim: service %d has %d threads; the simulator models the paper's single-threaded stages (exec.RunWallClock runs the multi-threaded relaxation)", i, svc.Threads)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pl := &pipeline{
		eng:          &engine{},
		cfg:          cfg,
		srcRemaining: int64(cfg.Tuples),
	}
	n := len(p)
	inCap := int64(cfg.BlockSize) * int64(cfg.QueueCapacityBlocks)
	for pos, s := range p {
		svc := q.Services[s]
		send := 0.0
		if pos+1 < n {
			send = q.Transfer[s][p[pos+1]]
		} else if q.SinkTransfer != nil {
			send = q.SinkTransfer[s]
		}
		pl.stages = append(pl.stages, &stage{
			idx:      pos,
			service:  s,
			procCost: svc.Cost,
			sendCost: send,
			filt:     newFilter(cfg.Filtering, svc.Selectivity, rng),
			inCap:    inCap,
		})
	}
	if q.SourceTransfer != nil {
		pl.srcSendCost = q.SourceTransfer[p[0]]
	}

	pl.eng.after(0, pl.sourceTry)
	pl.eng.run()

	if !pl.sinkEOS {
		return nil, fmt.Errorf("sim: internal error: event queue drained before end of stream")
	}

	rep := &Report{
		Makespan:            pl.makespan,
		TuplesIn:            int64(cfg.Tuples),
		TuplesOut:           pl.sinkTuples,
		MeasuredPeriod:      pl.makespan / float64(cfg.Tuples),
		PredictedBottleneck: q.Cost(p),
		SourceBusy:          pl.srcBusyTotal,
	}
	for _, st := range pl.stages {
		m := st.metrics
		m.Service = st.service
		m.Position = st.idx
		if pl.makespan > 0 {
			m.Utilization = (m.BusyProcessing + m.BusySending) / pl.makespan
		}
		rep.Stages = append(rep.Stages, m)
	}
	return rep, nil
}

// sourceTry ships the next block of input tuples when the source thread is
// free, then forwards EOS.
func (pl *pipeline) sourceTry() {
	if pl.srcBusy || pl.srcEOSSent {
		return
	}
	first := pl.stages[0]
	if pl.srcRemaining == 0 {
		// The EOS marker is scheduled after the last block's delivery
		// event at the same latency, so it always arrives behind the
		// data.
		pl.srcEOSSent = true
		pl.eng.after(pl.cfg.EdgeLatency, func() {
			first.eosIn = true
			pl.stageTry(0)
		})
		return
	}
	block := int64(pl.cfg.BlockSize)
	if block > pl.srcRemaining {
		block = pl.srcRemaining
	}
	if first.inQ+block > first.inCap {
		// Receiver full: retry when the first stage frees space.
		return
	}
	pl.srcBusy = true
	cost := pl.srcSendCost * float64(block)
	pl.eng.after(cost, func() {
		pl.srcBusyTotal += cost
		pl.srcRemaining -= block
		pl.srcBusy = false
		pl.eng.after(pl.cfg.EdgeLatency, func() {
			first.inQ += block
			pl.stageTry(0)
		})
		pl.sourceTry()
	})
}

// stageTry advances the state machine of stage i: start processing a
// tuple, start sending a block, flush, or forward EOS.
func (pl *pipeline) stageTry(i int) {
	st := pl.stages[i]
	if st.busy || st.blocked {
		return
	}
	switch {
	case st.outBuf >= pl.cfg.BlockSize:
		pl.startSend(i, pl.cfg.BlockSize)
	case st.inQ > 0:
		pl.startProcess(i)
	case st.eosIn && st.outBuf > 0:
		pl.startSend(i, st.outBuf) // flush the partial final block
	case st.eosIn && !st.eosOut:
		st.eosOut = true
		pl.eng.after(pl.cfg.EdgeLatency, func() { pl.deliverEOS(i) })
	}
}

func (pl *pipeline) deliverEOS(i int) {
	if i+1 < len(pl.stages) {
		pl.stages[i+1].eosIn = true
		pl.stageTry(i + 1)
		return
	}
	pl.sinkEOS = true
	pl.makespan = pl.eng.now
}

func (pl *pipeline) startProcess(i int) {
	st := pl.stages[i]
	st.busy = true
	st.inQ--
	// Removing the tuple from the queue may unblock the upstream sender.
	pl.creditUpstream(i)
	pl.eng.after(st.procCost, func() {
		st.busy = false
		st.metrics.BusyProcessing += st.procCost
		st.metrics.TuplesIn++
		k := st.filt.next()
		st.metrics.TuplesOut += int64(k)
		st.outBuf += k
		pl.stageTry(i)
	})
}

func (pl *pipeline) startSend(i int, size int) {
	st := pl.stages[i]
	st.busy = true
	cost := st.sendCost * float64(size)
	pl.eng.after(cost, func() {
		st.metrics.BusySending += cost
		st.busy = false
		st.outBuf -= size
		pl.tryDeliver(i, size)
	})
}

// tryDeliver hands a finished block to the next stage, or parks the sender
// in the blocked state until the receiver frees space.
func (pl *pipeline) tryDeliver(i, size int) {
	st := pl.stages[i]
	if i+1 == len(pl.stages) {
		pl.sinkTuples += int64(size)
		pl.stageTry(i)
		return
	}
	next := pl.stages[i+1]
	if next.inQ+int64(size) <= next.inCap {
		pl.eng.after(pl.cfg.EdgeLatency, func() {
			next.inQ += int64(size)
			pl.stageTry(i + 1)
		})
		pl.stageTry(i)
		return
	}
	st.blocked = true
	st.pending = size
	st.blockFrom = pl.eng.now
}

// creditUpstream re-attempts a parked delivery into stage i after its
// queue shrank, and wakes the source when stage 0 frees space.
func (pl *pipeline) creditUpstream(i int) {
	if i == 0 {
		pl.sourceTry()
		return
	}
	up := pl.stages[i-1]
	if !up.blocked {
		return
	}
	me := pl.stages[i]
	if me.inQ+int64(up.pending) > me.inCap {
		return
	}
	up.blocked = false
	up.metrics.Blocked += pl.eng.now - up.blockFrom
	size := up.pending
	up.pending = 0
	pl.eng.after(pl.cfg.EdgeLatency, func() {
		me.inQ += int64(size)
		pl.stageTry(i)
	})
	pl.stageTry(i - 1)
}
