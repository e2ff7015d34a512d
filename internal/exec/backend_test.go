package exec

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"serviceordering/internal/model"
)

func TestMockBackendDeterministicFiltering(t *testing.T) {
	mk := func() *MockBackend {
		b := NewMockBackend(7)
		b.SetService("s", MockService{Cost: 0.001, Selectivity: 0.5})
		return b
	}
	in := Tuples(1000)
	r1, err := mk().Call(context.Background(), "s", in)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	r2, err := mk().Call(context.Background(), "s", in)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(r1.Tuples) != len(r2.Tuples) {
		t.Fatalf("survivor counts differ: %d vs %d", len(r1.Tuples), len(r2.Tuples))
	}
	for i := range r1.Tuples {
		if r1.Tuples[i] != r2.Tuples[i] {
			t.Fatalf("tuple %d differs: %d vs %d", i, r1.Tuples[i], r2.Tuples[i])
		}
	}
	// Selectivity 0.5 over 1000 tuples: the hashed fraction lands near half.
	if n := len(r1.Tuples); n < 400 || n > 600 {
		t.Fatalf("survivors = %d, want ~500", n)
	}
	// Virtual processing time is exact: Cost x tuples, no sleeping.
	if want := time.Duration(0.001 * 1000 * float64(time.Second)); r1.Processing != want {
		t.Fatalf("Processing = %v, want %v", r1.Processing, want)
	}
}

func TestMockBackendProliferativeSelectivity(t *testing.T) {
	b := NewMockBackend(3)
	b.SetService("s", MockService{Cost: 0.0001, Selectivity: 2.5})
	in := Tuples(400)
	r, err := b.Call(context.Background(), "s", in)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	// Each input yields 2 copies plus a hashed 0.5 chance of a third.
	if n := len(r.Tuples); n < 900 || n > 1100 {
		t.Fatalf("output = %d tuples, want ~1000 for selectivity 2.5", n)
	}
}

func TestMockBackendUnknownService(t *testing.T) {
	strict := NewMockBackend(1)
	if _, err := strict.Call(context.Background(), "nope", Tuples(4)); err == nil {
		t.Fatal("unknown service succeeded on strict backend")
	}
	derive := NewMockBackend(1)
	derive.DeriveUnknown = true
	r, err := derive.Call(context.Background(), "nope", Tuples(100))
	if err != nil {
		t.Fatalf("derived call: %v", err)
	}
	if len(r.Tuples) == 0 || r.Processing <= 0 {
		t.Fatalf("derived service produced nothing: %+v", r)
	}
}

func TestHTTPBackendRoundTrip(t *testing.T) {
	mock := NewMockBackend(11)
	mock.SetService("svc/odd name", MockService{Cost: 0.002, Selectivity: 0.4})
	srv := httptest.NewServer(BackendHandler(mock))
	defer srv.Close()

	hb := &HTTPBackend{BaseURL: srv.URL}
	in := Tuples(500)
	got, err := hb.Call(context.Background(), "svc/odd name", in)
	if err != nil {
		t.Fatalf("HTTP call: %v", err)
	}
	want, err := mock.Call(context.Background(), "svc/odd name", in)
	if err != nil {
		t.Fatalf("direct call: %v", err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("tuple counts differ over HTTP: %d vs %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		if got.Tuples[i] != want.Tuples[i] {
			t.Fatalf("tuple %d differs over HTTP", i)
		}
	}
	// Processing survives the round trip at microsecond resolution.
	if got.Processing != want.Processing {
		t.Fatalf("Processing = %v over HTTP, want %v", got.Processing, want.Processing)
	}

	// Backend errors surface as call errors, not empty results.
	if _, err := hb.Call(context.Background(), "unregistered", in); err == nil {
		t.Fatal("backend error did not propagate over HTTP")
	}
}

func TestHTTPBackendEmptyResult(t *testing.T) {
	mock := NewMockBackend(5)
	mock.SetService("sieve", MockService{Cost: 0.001, Selectivity: 0})
	srv := httptest.NewServer(BackendHandler(mock))
	defer srv.Close()

	hb := &HTTPBackend{BaseURL: srv.URL}
	got, err := hb.Call(context.Background(), "sieve", Tuples(50))
	if err != nil {
		t.Fatalf("HTTP call: %v", err)
	}
	if len(got.Tuples) != 0 {
		t.Fatalf("selectivity-0 service returned %d tuples", len(got.Tuples))
	}
}

func TestHTTPBackendContextCancel(t *testing.T) {
	mock := NewMockBackend(5)
	mock.SetService("s", MockService{Cost: 0.001, Selectivity: 1})
	srv := httptest.NewServer(BackendHandler(mock))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hb := &HTTPBackend{BaseURL: srv.URL}
	if _, err := hb.Call(ctx, "s", Tuples(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The default client keeps one connection per concurrently calling stage:
// a 6-stage execution of 1000 tuples in 16-tuple blocks (378 calls) must
// open at most 6 connections; net/http's default of 2 idle connections per
// host opens dozens. The count is taken over a second execution: while the
// first grows the pool, the transport may finish a dial it started for a
// request that an idle connection served first, so it can open a few more.
func TestHTTPBackendReusesConnections(t *testing.T) {
	const stages, tuples, block = 6, 1000, 16
	mock := NewMockBackend(3)
	svcs := make([]model.Service, stages)
	for i := range svcs {
		svcs[i] = model.Service{Name: fmt.Sprintf("s%d", i), Cost: 0.001, Selectivity: 1}
	}
	q := testQuery(t, svcs...)
	mock.SetQuery(q)

	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(BackendHandler(mock))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	ex := New(&HTTPBackend{BaseURL: srv.URL}, Options{BlockSize: block})
	execute := func() int64 {
		before := opened.Load()
		res, err := ex.Execute(context.Background(), q, identityPlan(stages), Tuples(tuples))
		if err != nil || res.Degraded != nil {
			t.Fatalf("Execute: err %v, degraded %v", err, res.Degraded)
		}
		return opened.Load() - before
	}
	execute()
	if got := execute(); got > stages {
		t.Fatalf("opened %d connections for %d stages", got, stages)
	}
	if calls, want := ex.Stats().Calls, int64(2*stages*((tuples+block-1)/block)); calls != want {
		t.Fatalf("calls = %d, want %d", calls, want)
	}
}

// Replica bookkeeping on the mock: per-service counts override the
// default, values below 1 reset, and CallReplica is data-identical to
// Call (a hedge can change latency, never an answer).
func TestMockBackendReplicaHelpers(t *testing.T) {
	b := NewMockBackend(7)
	b.SetService("s", MockService{Cost: 0.001, Selectivity: 0.5})

	if got := b.Replicas("s"); got != 1 {
		t.Fatalf("unconfigured replicas = %d, want 1", got)
	}
	b.SetDefaultReplicas(3)
	if got := b.Replicas("s"); got != 3 {
		t.Fatalf("default replicas = %d, want 3", got)
	}
	b.SetReplicas("s", 5)
	if got := b.Replicas("s"); got != 5 {
		t.Fatalf("explicit replicas = %d, want 5", got)
	}
	b.SetReplicas("s", 0)
	if got := b.Replicas("s"); got != 3 {
		t.Fatalf("reset replicas = %d, want default 3", got)
	}

	in := Tuples(64)
	direct, err := b.Call(context.Background(), "s", in)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	for r := 0; r < 3; r++ {
		rep, err := b.CallReplica(context.Background(), "s", r, in)
		if err != nil {
			t.Fatalf("CallReplica(%d): %v", r, err)
		}
		if len(rep.Tuples) != len(direct.Tuples) {
			t.Fatalf("replica %d returned %d tuples, direct returned %d", r, len(rep.Tuples), len(direct.Tuples))
		}
		for i := range rep.Tuples {
			if rep.Tuples[i] != direct.Tuples[i] {
				t.Fatalf("replica %d tuple %d diverges from the direct call", r, i)
			}
		}
	}
}
