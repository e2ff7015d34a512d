package fleet

// Peer protocol frames: the conversation between whole dqserve nodes —
// forward a request to its owner, push a replicated cache entry, gossip an
// adaptive anchor snapshot. Frames are newline-delimited JSON over one TCP
// connection per peer pair, and every call is strictly request/response,
// so a connection needs no framing beyond the JSON stream itself.
//
// Bodies are opaque []byte (JSON base64s them): the Peer above decides
// what they mean. Forward bodies carry the /v1 envelope verbatim in both
// directions — the peer wire format is versioned by the HTTP surface it
// transports, not by a parallel schema here.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Peer frame types.
const (
	// FrameForward carries a client request body to the signature's owner;
	// the response frame carries the owner's full HTTP answer (status,
	// Retry-After, envelope body) back verbatim.
	FrameForward = "forward"
	// FrameReplicate pushes a single-entry SOP1 plan-cache document from
	// an owner to a replica.
	FrameReplicate = "replicate"
	// FrameGossip broadcasts an encoded adaptive anchor snapshot.
	FrameGossip = "gossip"
	// FrameHello opens a connection: fleet-ID handshake.
	FrameHello = "hello"
)

// Frame is one peer-protocol message. Requests and responses share the
// shape; a response echoes Type and fills Status (and, for forwards,
// RetryAfter and Body).
type Frame struct {
	Type  string `json:"type"`
	Fleet string `json:"fleet,omitempty"`
	From  string `json:"from,omitempty"`

	// Path selects the owner-side route of a forwarded request (e.g.
	// "/v1/optimize"); unused on other frame types.
	Path string `json:"path,omitempty"`

	// Status is an HTTP status code on responses (0 on requests).
	Status int `json:"status,omitempty"`

	// RetryAfter relays an owner's Retry-After header (seconds) on
	// forwarded shed responses.
	RetryAfter int64 `json:"retryAfter,omitempty"`

	Body []byte `json:"body,omitempty"`

	// Error carries a transport-level failure description on responses
	// the handler rejected outright (fleet mismatch, unknown type).
	Error string `json:"error,omitempty"`
}

// PeerConn is one established connection to a remote peer. Calls are
// strictly serialized: one in-flight request per connection, which is all
// the fleet needs (forwards are latency-bound, not bandwidth-bound, and
// Peer pools connections above this).
type PeerConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *json.Encoder
	bw   *bufio.Writer
	dec  *json.Decoder
}

// DialPeer connects to a peer's listener and performs the fleet-ID
// handshake. A mismatched fleet ID is refused by the remote handler —
// catching two fleets pointed at each other's ports before any state
// moves.
func DialPeer(addr, fleet, self string, timeout time.Duration) (*PeerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("fleet: peer dial %s: %w", addr, err)
	}
	bw := bufio.NewWriter(conn)
	pc := &PeerConn{
		conn: conn,
		bw:   bw,
		enc:  json.NewEncoder(bw),
		dec:  json.NewDecoder(bufio.NewReaderSize(conn, 64<<10)),
	}
	resp, err := pc.Call(Frame{Type: FrameHello, Fleet: fleet, From: self})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Error != "" {
		conn.Close()
		return nil, fmt.Errorf("fleet: peer %s refused hello: %s", addr, resp.Error)
	}
	return pc, nil
}

// Call sends one frame and reads one response, serialized against other
// callers on this connection. A transport error leaves the connection
// poisoned; the caller should Close and redial.
func (pc *PeerConn) Call(req Frame) (Frame, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if err := pc.enc.Encode(&req); err != nil {
		return Frame{}, fmt.Errorf("fleet: peer send: %w", err)
	}
	if err := pc.bw.Flush(); err != nil {
		return Frame{}, fmt.Errorf("fleet: peer flush: %w", err)
	}
	var resp Frame
	if err := pc.dec.Decode(&resp); err != nil {
		return Frame{}, fmt.Errorf("fleet: peer recv: %w", err)
	}
	return resp, nil
}

// Close releases the connection.
func (pc *PeerConn) Close() error { return pc.conn.Close() }

// PeerServer accepts peer connections and serves frames with a
// Peer's frame handler. One goroutine per connection; connections are
// long-lived (the dialing side pools them).
type PeerServer struct {
	ln      net.Listener
	fleet   string
	handler func(Frame) Frame

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenPeer opens the fleet listener on addr (host:port; port 0 picks an
// ephemeral port — Addr reports the bound address).
func ListenPeer(addr, fleet string) (*PeerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: peer listen %s: %w", addr, err)
	}
	return &PeerServer{ln: ln, fleet: fleet, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listen address.
func (ps *PeerServer) Addr() string { return ps.ln.Addr().String() }

// Serve accepts connections until Close, dispatching every non-hello
// frame to handler. It blocks; run it on its own goroutine. The handler
// must be safe for concurrent use (one goroutine per peer connection).
func (ps *PeerServer) Serve(handler func(Frame) Frame) error {
	ps.mu.Lock()
	ps.handler = handler
	ps.mu.Unlock()
	for {
		conn, err := ps.ln.Accept()
		if err != nil {
			ps.mu.Lock()
			closed := ps.closed
			ps.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("fleet: peer accept: %w", err)
		}
		ps.mu.Lock()
		if ps.closed {
			ps.mu.Unlock()
			conn.Close()
			return nil
		}
		ps.conns[conn] = struct{}{}
		ps.wg.Add(1)
		ps.mu.Unlock()
		go ps.serveConn(conn, handler)
	}
}

func (ps *PeerServer) serveConn(conn net.Conn, handler func(Frame) Frame) {
	defer func() {
		conn.Close()
		ps.mu.Lock()
		delete(ps.conns, conn)
		ps.mu.Unlock()
		ps.wg.Done()
	}()
	bw := bufio.NewWriter(conn)
	enc := json.NewEncoder(bw)
	dec := json.NewDecoder(bufio.NewReaderSize(conn, 64<<10))
	for {
		var req Frame
		if err := dec.Decode(&req); err != nil {
			return // EOF or poisoned stream: drop the connection
		}
		var resp Frame
		switch {
		case req.Fleet != ps.fleet:
			resp = Frame{Type: req.Type, Error: fmt.Sprintf("fleet mismatch: got %q, serving %q", req.Fleet, ps.fleet)}
		case req.Type == FrameHello:
			resp = Frame{Type: FrameHello, Fleet: ps.fleet}
		default:
			resp = handler(req)
			resp.Type = req.Type
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Close stops accepting, closes every live connection, and waits for
// their serve goroutines to drain.
func (ps *PeerServer) Close() error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil
	}
	ps.closed = true
	err := ps.ln.Close()
	for conn := range ps.conns {
		conn.Close()
	}
	ps.mu.Unlock()
	ps.wg.Wait()
	return err
}
