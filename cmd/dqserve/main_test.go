package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/serve"
)

// startServer runs the real dqserve server (flags and all) on a loopback
// port and returns its base URL plus a stop function that exercises the
// signal-driven graceful shutdown. Tests using it must not run in
// parallel: stop() delivers SIGTERM to the whole test process, relying on
// this server's signal.NotifyContext being the only active handler.
func startServer(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not become ready")
	}
	stop := func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("signaling shutdown: %v", err)
		}
		select {
		case err := <-done:
			if err != nil && err != http.ErrServerClosed {
				t.Errorf("server shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("server did not shut down after SIGTERM")
		}
	}
	return "http://" + addr, stop
}

// decodeV1 decodes a /v1 success envelope's data payload into v; an error
// envelope fails the test.
func decodeV1(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error != nil {
		t.Fatalf("status %d: error envelope %+v", resp.StatusCode, *env.Error)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		t.Fatal(err)
	}
}

func fixtureBody(t *testing.T) []byte {
	t.Helper()
	q, err := model.NewQuery(
		[]model.Service{
			{Name: "a", Cost: 2, Selectivity: 0.5},
			{Name: "b", Cost: 1, Selectivity: 0.8},
		},
		[][]float64{
			{0, 1},
			{3, 0},
		})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&model.Instance{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeEndToEnd drives the real server binary path: listener, route
// table, and graceful shutdown.
func TestServeEndToEnd(t *testing.T) {
	url, stop := startServer(t)
	defer stop()

	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(fixtureBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got serve.OptimizeResponse
	decodeV1(t, resp, &got)
	if len(got.Plan) != 2 || !got.Optimal {
		t.Fatalf("unexpected response: %+v", got)
	}
}

// TestLargeInstancesEndToEnd drives n=128 and n=256 instances through the
// real server: both are past the exact core's 64-service limit, so both
// must be admitted, solved by the heuristic tier, and answered 200 with
// the producing tier reported.
func TestLargeInstancesEndToEnd(t *testing.T) {
	url, stop := startServer(t)
	defer stop()

	for _, n := range []int{128, 256} {
		q, err := gen.Default(n, int64(4000+n)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(&model.Instance{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("n=%d: status = %d, want 200", n, resp.StatusCode)
		}
		var got serve.OptimizeResponse
		decodeV1(t, resp, &got)
		resp.Body.Close()
		if !strings.HasPrefix(got.Tier, "heuristic/") {
			t.Errorf("n=%d: tier = %q, want heuristic/*", n, got.Tier)
		}
		if got.Optimal {
			t.Errorf("n=%d: response claims optimality without a proof", n)
		}
		if err := got.Plan.Validate(q); err != nil {
			t.Errorf("n=%d: served plan invalid: %v", n, err)
		}
	}
}

// TestExactOnlyModeRejectsLargeInstances: -exact-only restores the
// exact-only server, which answers oversized queries with the typed 422
// rejection instead of serving a heuristic plan.
func TestExactOnlyModeRejectsLargeInstances(t *testing.T) {
	url, stop := startServer(t, "-exact-only")
	defer stop()

	q, err := gen.Default(80, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&model.Instance{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

// TestSlowBodyRequestsAreCutOff pins the ReadTimeout hardening: a client
// that sends headers and then dribbles its body must have the connection
// severed once the read timeout expires — it cannot hold a server
// connection (and its goroutine) open indefinitely.
func TestSlowBodyRequestsAreCutOff(t *testing.T) {
	url, stop := startServer(t, "-read-timeout", "300ms")
	defer stop()

	// Sanity: a prompt request on the same server succeeds.
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(fixtureBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast request status = %d, want 200", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", url[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a large body, deliver one byte, then stall.
	fmt.Fprintf(conn, "POST /v1/optimize HTTP/1.1\r\nHost: dqserve\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{")

	start := time.Now()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection (with or without a terminal
	// error response) shortly after the 300ms read timeout — long before
	// our own 10s deadline.
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if netErr, ok := err.(net.Error); ok && netErr.Timeout() {
		t.Fatalf("server never cut off the slow-body connection (client read timed out after %v)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("connection closed only after %v; ReadTimeout was 300ms", elapsed)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
}
