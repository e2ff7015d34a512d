package fleet

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startPeer spins up a PeerServer on an ephemeral port serving handler,
// and tears it down with the test.
func startPeer(t *testing.T, fleet string, handler func(Frame) Frame) *PeerServer {
	t.Helper()
	ps, err := ListenPeer("127.0.0.1:0", fleet)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve(handler) }()
	t.Cleanup(func() {
		ps.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ps
}

// TestPeerCallRoundTrip: a frame round-trips through the handler with the
// opaque body intact and the response type echoed.
func TestPeerCallRoundTrip(t *testing.T) {
	t.Parallel()
	ps := startPeer(t, "f1", func(req Frame) Frame {
		return Frame{Status: 200, Body: append([]byte("echo:"), req.Body...)}
	})
	pc, err := DialPeer(ps.Addr(), "f1", "client", time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()

	resp, err := pc.Call(Frame{Type: FrameForward, Fleet: "f1", Path: "/v1/optimize", Body: []byte(`{"q":1}`)})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.Type != FrameForward || resp.Status != 200 {
		t.Fatalf("response %+v, want forward/200", resp)
	}
	if !bytes.Equal(resp.Body, []byte(`echo:{"q":1}`)) {
		t.Fatalf("body %q", resp.Body)
	}
}

// TestPeerFleetMismatch: a wrong fleet ID is refused at the handshake, and
// a mismatched frame on an open connection gets an error frame instead of
// reaching the handler.
func TestPeerFleetMismatch(t *testing.T) {
	t.Parallel()
	var reached atomic.Bool
	ps := startPeer(t, "prod", func(Frame) Frame {
		reached.Store(true)
		return Frame{Status: 200}
	})
	if _, err := DialPeer(ps.Addr(), "staging", "client", time.Second); err == nil {
		t.Fatal("cross-fleet hello accepted")
	} else if !strings.Contains(err.Error(), "fleet mismatch") {
		t.Fatalf("hello refusal: %v", err)
	}

	pc, err := DialPeer(ps.Addr(), "prod", "client", time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	resp, err := pc.Call(Frame{Type: FrameGossip, Fleet: "staging"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.Error == "" {
		t.Fatal("mismatched frame not rejected")
	}
	if reached.Load() {
		t.Fatal("mismatched frame reached the handler")
	}
}

// TestPeerConcurrentCalls: one connection serializes calls correctly under
// concurrency — every caller gets its own response back.
func TestPeerConcurrentCalls(t *testing.T) {
	t.Parallel()
	ps := startPeer(t, "f", func(req Frame) Frame {
		return Frame{Status: 200, Body: req.Body}
	})
	pc, err := DialPeer(ps.Addr(), "f", "client", time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte{byte(i), byte(i + 1)}
			for j := 0; j < 50; j++ {
				resp, err := pc.Call(Frame{Type: FrameReplicate, Fleet: "f", Body: body})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if !bytes.Equal(resp.Body, body) {
					t.Errorf("cross-talk: sent %v got %v", body, resp.Body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPeerServerClose: Close unblocks Serve, drops live connections, and
// subsequent calls on a dialed connection fail instead of hanging.
func TestPeerServerClose(t *testing.T) {
	t.Parallel()
	ps, err := ListenPeer("127.0.0.1:0", "f")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve(func(Frame) Frame { return Frame{Status: 200} }) }()

	pc, err := DialPeer(ps.Addr(), "f", "client", time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	if err := ps.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if _, err := pc.Call(Frame{Type: FrameGossip, Fleet: "f"}); err == nil {
		t.Fatal("call on a closed server succeeded")
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
