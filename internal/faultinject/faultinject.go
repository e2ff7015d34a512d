// Package faultinject wraps an exec.Backend in a deterministic, seedable
// fault plan, so every retry, breaker, timeout, and degraded-result path
// in the executor is exercised reproducibly — in unit tests, and in the
// dqload chaos scenario CI gates on.
//
// Determinism: every injection decision is a pure function of (plan seed,
// service name, that service's call index). Call indices advance one per
// Call per service, so a single-threaded caller replays the exact same
// fault sequence run after run; concurrent callers see the same multiset
// of faults per service, interleaved by scheduling.
//
// Four fault shapes compose per service:
//
//   - ErrorRate: a hashed fraction of calls fail outright.
//   - Latency spikes: a hashed fraction of calls sleep Spike before
//     proceeding — long spikes turn into call timeouts upstream.
//   - Blackout: calls [BlackoutFrom, BlackoutFrom+BlackoutLen) all fail —
//     the consecutive-failure shape that opens circuit breakers.
//   - Trickle: every TrickleEvery-th call sleeps Trickle first — the
//     slow-dribble degradation mode.
//
// Sleeps are context-aware: an expired deadline cuts them short and the
// call reports the context's error, exactly like a real slow service.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/exec"
)

// ErrInjected marks a fault-plan failure; callers can errors.Is against it
// to tell injected faults from real backend errors.
var ErrInjected = errors.New("faultinject: injected failure")

// Faults is one service's fault plan. The zero value injects nothing.
type Faults struct {
	// ErrorRate is the fraction of calls failing with ErrInjected.
	ErrorRate float64

	// SpikeRate and Spike: that fraction of calls sleep Spike first.
	SpikeRate float64
	Spike     time.Duration

	// BlackoutFrom / BlackoutLen: the service's calls numbered
	// [BlackoutFrom, BlackoutFrom+BlackoutLen) all fail.
	BlackoutFrom int64
	BlackoutLen  int64

	// TrickleEvery / Trickle: every TrickleEvery-th call (1-based) sleeps
	// Trickle before proceeding.
	TrickleEvery int64
	Trickle      time.Duration
}

// Plan is a whole backend's fault plan.
type Plan struct {
	// Seed drives every hashed decision.
	Seed int64

	// Services maps service names to their faults; absent services pass
	// through untouched.
	Services map[string]Faults

	// Replicas, when set, overrides a service's faults for specific
	// replica indices (hedged calls target replicas explicitly). Replica
	// 0 always uses Services[name]; other replicas default to fault-free
	// unless listed here. Every (service, replica) pair keeps its own
	// deterministic decision stream and call index, so a hedge against a
	// healthy replica replays identically run after run.
	Replicas map[string]map[int]Faults
}

// Stats counts what the injector actually did.
type Stats struct {
	Calls     int64 `json:"calls"`     // calls that reached the injector
	Errors    int64 `json:"errors"`    // ErrorRate failures injected
	Blackouts int64 `json:"blackouts"` // blackout-window failures injected
	Spikes    int64 `json:"spikes"`    // latency spikes injected
	Trickles  int64 `json:"trickles"`  // trickle delays injected
}

// Injector is the wrapping backend. It implements exec.ReplicaBackend:
// replica counts pass through to the wrapped backend (1 when it has no
// replica support), and per-replica calls get their own fault streams.
type Injector struct {
	backend exec.Backend
	rb      exec.ReplicaBackend // non-nil when backend exposes replicas
	plan    Plan

	mu      sync.Mutex
	callIdx map[string]int64

	calls, errs, blackouts, spikes, trickles atomic.Int64
}

// Wrap builds an Injector applying plan in front of backend.
func Wrap(backend exec.Backend, plan Plan) *Injector {
	inj := &Injector{backend: backend, plan: plan, callIdx: make(map[string]int64)}
	if rb, ok := backend.(exec.ReplicaBackend); ok {
		inj.rb = rb
	}
	return inj
}

// Stats snapshots the injected-fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Calls:     inj.calls.Load(),
		Errors:    inj.errs.Load(),
		Blackouts: inj.blackouts.Load(),
		Spikes:    inj.spikes.Load(),
		Trickles:  inj.trickles.Load(),
	}
}

// Call implements exec.Backend.
func (inj *Injector) Call(ctx context.Context, service string, in []Tuple) (exec.CallResult, error) {
	inj.calls.Add(1)
	f, ok := inj.plan.Services[service]
	if !ok {
		return inj.backend.Call(ctx, service, in)
	}
	if err := inj.inject(ctx, service, f); err != nil {
		return exec.CallResult{}, err
	}
	return inj.backend.Call(ctx, service, in)
}

// Replicas implements exec.ReplicaBackend.
func (inj *Injector) Replicas(service string) int {
	if inj.rb == nil {
		return 1
	}
	return inj.rb.Replicas(service)
}

// CallReplica implements exec.ReplicaBackend. Replica 0 shares the
// primary stream (its faults and call index are exactly Call's); replica
// r > 0 draws from the independent stream keyed "service#r" with the
// faults Plan.Replicas assigns it (fault-free when absent).
func (inj *Injector) CallReplica(ctx context.Context, service string, replica int, in []Tuple) (exec.CallResult, error) {
	if inj.rb == nil {
		return exec.CallResult{}, fmt.Errorf("faultinject: backend has no replica support for %s", service)
	}
	inj.calls.Add(1)
	key := service
	f, ok := inj.plan.Services[service]
	if replica > 0 {
		key = fmt.Sprintf("%s#%d", service, replica)
		f, ok = inj.plan.Replicas[service][replica]
	}
	if ok {
		if err := inj.inject(ctx, key, f); err != nil {
			return exec.CallResult{}, err
		}
	}
	return inj.rb.CallReplica(ctx, service, replica, in)
}

// inject advances key's call index and applies one call's worth of faults
// from f: a non-nil return is the injected failure; nil means the call
// proceeds (possibly after an injected delay).
func (inj *Injector) inject(ctx context.Context, key string, f Faults) error {
	inj.mu.Lock()
	idx := inj.callIdx[key]
	inj.callIdx[key] = idx + 1
	inj.mu.Unlock()

	if f.BlackoutLen > 0 && idx >= f.BlackoutFrom && idx < f.BlackoutFrom+f.BlackoutLen {
		inj.blackouts.Add(1)
		return fmt.Errorf("%w: %s call %d inside blackout [%d,%d)",
			ErrInjected, key, idx, f.BlackoutFrom, f.BlackoutFrom+f.BlackoutLen)
	}
	if f.ErrorRate > 0 && decision(inj.plan.Seed, key, idx, saltError) < f.ErrorRate {
		inj.errs.Add(1)
		return fmt.Errorf("%w: %s call %d (error rate %.2f)", ErrInjected, key, idx, f.ErrorRate)
	}
	var delay time.Duration
	if f.SpikeRate > 0 && f.Spike > 0 && decision(inj.plan.Seed, key, idx, saltSpike) < f.SpikeRate {
		inj.spikes.Add(1)
		delay += f.Spike
	}
	if f.TrickleEvery > 0 && f.Trickle > 0 && (idx+1)%f.TrickleEvery == 0 {
		inj.trickles.Add(1)
		delay += f.Trickle
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Tuple aliases exec.Tuple so the Backend interface matches.
type Tuple = exec.Tuple

// Decision salts keep the error and spike streams independent: a call can
// spike without failing and vice versa.
const (
	saltError uint64 = 0x632be59bd9b4e019
	saltSpike uint64 = 0xd6e8feb86659fd93
)

// decision maps (seed, service, index, salt) to [0, 1) via FNV + a
// splitmix64-style finalizer.
func decision(seed int64, service string, idx int64, salt uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(service); i++ {
		h ^= uint64(service[i])
		h *= 1099511628211
	}
	x := uint64(seed) ^ h ^ (uint64(idx) * 0x9e3779b97f4a7c15) ^ salt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
