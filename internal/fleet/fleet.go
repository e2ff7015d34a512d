package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/ccache"
	"serviceordering/internal/planner"
)

// Options configures one fleet peer.
type Options struct {
	// FleetID names the fleet; peers refuse frames from another fleet.
	FleetID string
	// Self is this peer's fleet address (must appear in Peers).
	Self string
	// Peers is the full static membership — every peer's fleet address,
	// including Self, identical on every node.
	Peers []string
	// Replication is the number of peers (owner included) holding each
	// signature's plan entry. Clamped to [1, len(Peers)]; default 2.
	Replication int

	// Planner is the local planner whose cache is sharded and replicated.
	Planner *planner.Planner
	// Registry, when non-nil, receives gossiped anchor snapshots.
	Registry *adapt.Registry
	// Server is this peer's frame listener (already listening; Run serves
	// it). Tests pass a :0-bound listener; dqserve binds its -fleet-addr.
	Server *PeerServer
}

// dialTimeout bounds peer dials.
const dialTimeout = 2 * time.Second

// Decision is the routing outcome for one request signature.
type Decision int

const (
	// Local: serve on this node — it owns the signature, or holds a fresh
	// replica of it.
	Local Decision = iota
	// Forward: another peer owns the signature and no fresh replica is
	// resident here.
	Forward
)

// LocalHandler serves a forwarded request body on the owning node,
// returning the HTTP status, a Retry-After value in seconds (0 when
// absent), whether the answer came from a fresh warm cache entry, and the
// response envelope verbatim.
type LocalHandler func(path string, body []byte) (status int, retryAfter int64, warm bool, resp []byte)

// Stats is a point-in-time snapshot of the peer's counters.
type Stats struct {
	// Client-side routing.
	OwnedLocal    int64 `json:"ownedLocal"`    // requests this peer owned outright
	ReplicaHits   int64 `json:"replicaHits"`   // answered from a fresh local replica
	Forwarded     int64 `json:"forwarded"`     // relayed to the owner
	ForwardFailed int64 `json:"forwardFailed"` // relay failed; served locally instead

	// Owner-side serving of forwarded requests.
	ForwardServed     int64 `json:"forwardServed"`
	ForwardServedWarm int64 `json:"forwardServedWarm"`

	// Replication.
	ReplicasPushed  int64 `json:"replicasPushed"`  // entries pushed to replicas
	ReplicasApplied int64 `json:"replicasApplied"` // received and stored fresh
	ReplicasStale   int64 `json:"replicasStale"`   // received but anchor-stale (stored as stale)
	ReplicateFailed int64 `json:"replicateFailed"` // push transport failures

	// Anchor gossip.
	GossipSent    int64 `json:"gossipSent"`
	GossipApplied int64 `json:"gossipApplied"` // installed a newer anchor
	GossipIgnored int64 `json:"gossipIgnored"` // already at or past that generation
}

// Peer is one fleet member's runtime: the ring, the pooled peer
// connections, the replication worker, and the frame handler.
type Peer struct {
	opts Options
	ring *ring
	repl int

	local atomic.Pointer[LocalHandler]

	connMu sync.Mutex
	conns  map[string]*PeerConn

	replCh    chan replTask
	closeCh   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	ownedLocal, replicaHits, forwarded, forwardFailed atomic.Int64
	forwardServed, forwardServedWarm                  atomic.Int64
	replicasPushed, replicasApplied, replicasStale    atomic.Int64
	replicateFailed, gossipSent                       atomic.Int64
	gossipApplied, gossipIgnored                      atomic.Int64
}

type replTask struct {
	sig  planner.Signature
	done chan struct{} // non-nil only for Flush sentinels
}

// New validates the configuration and builds the peer. Call Run to start
// serving frames and replicating.
func New(opts Options) (*Peer, error) {
	if opts.Planner == nil {
		return nil, fmt.Errorf("fleet: nil planner")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("fleet: empty peer list")
	}
	found := false
	for _, p := range opts.Peers {
		if p == opts.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("fleet: self %q not in peer list %v", opts.Self, opts.Peers)
	}
	repl := opts.Replication
	if repl <= 0 {
		repl = 2
	}
	if repl > len(opts.Peers) {
		repl = len(opts.Peers)
	}
	return &Peer{
		opts:    opts,
		ring:    newRing(opts.FleetID, opts.Peers),
		repl:    repl,
		conns:   make(map[string]*PeerConn),
		replCh:  make(chan replTask, 256),
		closeCh: make(chan struct{}),
	}, nil
}

// SetLocalHandler registers the owner-side request handler (the serve
// layer's routed-optimize path with routing disabled — a forwarded
// request must never be re-forwarded).
func (p *Peer) SetLocalHandler(h LocalHandler) { p.local.Store(&h) }

// Run starts the frame server and the replication worker. It returns
// immediately; Close stops both.
func (p *Peer) Run() {
	if p.opts.Server != nil {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.opts.Server.Serve(p.handleFrame)
		}()
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.replicateLoop()
	}()
}

// Close stops the frame server, the replication worker, and every pooled
// connection. Safe to call more than once.
func (p *Peer) Close() {
	p.closeOnce.Do(func() {
		close(p.closeCh)
		if p.opts.Server != nil {
			p.opts.Server.Close()
		}
		p.wg.Wait()
		p.connMu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.conns = make(map[string]*PeerConn)
		p.connMu.Unlock()
	})
}

// Self returns this peer's fleet address.
func (p *Peer) Self() string { return p.opts.Self }

// Stats snapshots the counters.
func (p *Peer) Stats() Stats {
	return Stats{
		OwnedLocal:        p.ownedLocal.Load(),
		ReplicaHits:       p.replicaHits.Load(),
		Forwarded:         p.forwarded.Load(),
		ForwardFailed:     p.forwardFailed.Load(),
		ForwardServed:     p.forwardServed.Load(),
		ForwardServedWarm: p.forwardServedWarm.Load(),
		ReplicasPushed:    p.replicasPushed.Load(),
		ReplicasApplied:   p.replicasApplied.Load(),
		ReplicasStale:     p.replicasStale.Load(),
		ReplicateFailed:   p.replicateFailed.Load(),
		GossipSent:        p.gossipSent.Load(),
		GossipApplied:     p.gossipApplied.Load(),
		GossipIgnored:     p.gossipIgnored.Load(),
	}
}

// Owner returns the peer owning sig's slice of the signature space.
func (p *Peer) Owner(sig planner.Signature) string {
	return p.ring.owner(ccache.FNV64(sig[:]))
}

// Route decides where a request for sig is served. Local when this peer
// owns sig, or when it is in sig's replica set and holds a fresh resident
// entry (the replica-warm fast path — answered here, no forward hop).
// Forward otherwise, with the returned owner as the destination.
func (p *Peer) Route(sig planner.Signature) (Decision, string) {
	h := ccache.FNV64(sig[:])
	replicas := p.ring.replicaSet(h, p.repl)
	owner := replicas[0]
	if owner == p.opts.Self {
		p.ownedLocal.Add(1)
		return Local, owner
	}
	for _, r := range replicas[1:] {
		if r == p.opts.Self && p.opts.Planner.ResidentFresh(sig) {
			p.replicaHits.Add(1)
			return Local, owner
		}
	}
	return Forward, owner
}

// Forward relays a request body to owner and returns the owner's verbatim
// HTTP answer. On transport failure the caller should serve locally (the
// peer-death fallback) — Forward records the failure and redials on the
// next call.
func (p *Peer) Forward(owner, path string, body []byte) (status int, retryAfter int64, resp []byte, err error) {
	conn, err := p.conn(owner)
	if err != nil {
		p.forwardFailed.Add(1)
		return 0, 0, nil, err
	}
	fr, err := conn.Call(Frame{
		Type:  FrameForward,
		Fleet: p.opts.FleetID,
		From:  p.opts.Self,
		Path:  path,
		Body:  body,
	})
	if err != nil {
		p.dropConn(owner, conn)
		p.forwardFailed.Add(1)
		return 0, 0, nil, err
	}
	if fr.Error != "" {
		p.forwardFailed.Add(1)
		return 0, 0, nil, fmt.Errorf("fleet: forward to %s: %s", owner, fr.Error)
	}
	p.forwarded.Add(1)
	return fr.Status, fr.RetryAfter, fr.Body, nil
}

// ReplicateAsync queues sig's plan entry for push to its replica set. The
// queue is bounded; under overload new replications are dropped (warmth is
// best-effort, the entry still serves from its owner).
func (p *Peer) ReplicateAsync(sig planner.Signature) {
	select {
	case p.replCh <- replTask{sig: sig}:
	default:
	}
}

// FlushReplication blocks until every replication queued before the call
// has been pushed. Benchmarks and tests use it to make fill phases
// deterministic.
func (p *Peer) FlushReplication() {
	done := make(chan struct{})
	select {
	case p.replCh <- replTask{done: done}:
		select {
		case <-done:
		case <-p.closeCh:
		}
	case <-p.closeCh:
	}
}

// BroadcastAnchor pushes the registry's current anchor snapshot to every
// other peer, synchronously. Called on each published generation bump —
// rare (drift events), so the fan-out latency is irrelevant — and during
// fleet bring-up so a late-joining peer converges without waiting for
// drift.
func (p *Peer) BroadcastAnchor() error {
	if p.opts.Registry == nil {
		return nil
	}
	data, err := adapt.EncodeSnapshot(p.opts.Registry.Current())
	if err != nil {
		return err
	}
	var firstErr error
	for _, peer := range p.opts.Peers {
		if peer == p.opts.Self {
			continue
		}
		if err := p.send(peer, Frame{
			Type:  FrameGossip,
			Fleet: p.opts.FleetID,
			From:  p.opts.Self,
			Body:  data,
		}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.gossipSent.Add(1)
	}
	return firstErr
}

// replicateLoop drains the replication queue: export the entry, push it to
// every replica peer.
func (p *Peer) replicateLoop() {
	for {
		select {
		case <-p.closeCh:
			return
		case task := <-p.replCh:
			if task.done != nil {
				close(task.done)
				continue
			}
			p.replicateOne(task.sig)
		}
	}
}

func (p *Peer) replicateOne(sig planner.Signature) {
	doc, ok := p.opts.Planner.ExportEntry(sig)
	if !ok {
		return
	}
	for _, peer := range p.ring.replicaSet(ccache.FNV64(sig[:]), p.repl) {
		if peer == p.opts.Self {
			continue
		}
		if err := p.send(peer, Frame{
			Type:  FrameReplicate,
			Fleet: p.opts.FleetID,
			From:  p.opts.Self,
			Body:  doc,
		}); err != nil {
			p.replicateFailed.Add(1)
			continue
		}
		p.replicasPushed.Add(1)
	}
}

// send issues one fire-and-acknowledge frame to peer.
func (p *Peer) send(peer string, fr Frame) error {
	conn, err := p.conn(peer)
	if err != nil {
		return err
	}
	resp, err := conn.Call(fr)
	if err != nil {
		p.dropConn(peer, conn)
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("fleet: %s to %s: %s", fr.Type, peer, resp.Error)
	}
	return nil
}

// handleFrame serves one peer-protocol frame (hello and fleet mismatch are
// handled by the PeerServer before the frame reaches here).
func (p *Peer) handleFrame(fr Frame) Frame {
	switch fr.Type {
	case FrameForward:
		hp := p.local.Load()
		if hp == nil {
			return Frame{Error: "fleet: no local handler registered"}
		}
		status, retryAfter, warm, resp := (*hp)(fr.Path, fr.Body)
		p.forwardServed.Add(1)
		if warm {
			p.forwardServedWarm.Add(1)
		}
		return Frame{Status: status, RetryAfter: retryAfter, Body: resp}
	case FrameReplicate:
		restored, fresh, err := p.opts.Planner.ImportEntry(fr.Body)
		if err != nil {
			return Frame{Error: err.Error()}
		}
		if restored > 0 && fresh {
			p.replicasApplied.Add(1)
		} else {
			p.replicasStale.Add(1)
		}
		return Frame{Status: 200}
	case FrameGossip:
		snap, err := adapt.DecodeSnapshot(fr.Body)
		if err != nil {
			return Frame{Error: err.Error()}
		}
		if p.opts.Registry != nil && p.opts.Registry.Install(snap) {
			p.gossipApplied.Add(1)
		} else {
			p.gossipIgnored.Add(1)
		}
		return Frame{Status: 200}
	default:
		return Frame{Error: fmt.Sprintf("fleet: unknown frame type %q", fr.Type)}
	}
}

// conn returns a pooled connection to peer, dialing on first use.
func (p *Peer) conn(peer string) (*PeerConn, error) {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if c, ok := p.conns[peer]; ok {
		return c, nil
	}
	c, err := DialPeer(peer, p.opts.FleetID, p.opts.Self, dialTimeout)
	if err != nil {
		return nil, err
	}
	p.conns[peer] = c
	return c, nil
}

// dropConn discards a poisoned connection so the next call redials.
func (p *Peer) dropConn(peer string, c *PeerConn) {
	p.connMu.Lock()
	if p.conns[peer] == c {
		delete(p.conns, peer)
	}
	p.connMu.Unlock()
	c.Close()
}
