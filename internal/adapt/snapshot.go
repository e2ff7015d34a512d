package adapt

// Anchor snapshot serialization for fleet gossip. A published Snapshot is
// an immutable value — generation counter plus the fitted parameter maps —
// so shipping it between peers is a plain encode/decode: no state machine,
// no deltas. The wire form is JSON with the struct-keyed edge map flattened
// to an array (JSON objects cannot key on a struct), versioned by a format
// tag so a future layout can coexist on the wire.

import (
	"encoding/json"
	"fmt"
)

// snapshotWireFormat tags the JSON layout; bump it when the wire form
// changes shape incompatibly.
const snapshotWireFormat = 1

// wireEdge is the flattened form of one Edges map entry.
type wireEdge struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Transfer float64 `json:"transfer"`
}

// wireSnapshot is the on-the-wire layout of a Snapshot.
type wireSnapshot struct {
	Format      int                          `json:"format"`
	Gen         uint64                       `json:"gen"`
	Services    map[string]ServiceParams     `json:"services,omitempty"`
	Edges       []wireEdge                   `json:"edges,omitempty"`
	Reliability map[string]ReliabilityParams `json:"reliability,omitempty"`
}

// EncodeSnapshot serializes a snapshot for gossip. A nil snapshot encodes
// as the empty generation-0 snapshot.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		s = &Snapshot{}
	}
	w := wireSnapshot{Format: snapshotWireFormat, Gen: s.Gen}
	if len(s.Services) > 0 {
		w.Services = s.Services
	}
	if len(s.Reliability) > 0 {
		w.Reliability = s.Reliability
	}
	for e, t := range s.Edges {
		w.Edges = append(w.Edges, wireEdge{From: e.From, To: e.To, Transfer: t})
	}
	return json.Marshal(w)
}

// DecodeSnapshot parses a gossiped snapshot. The returned value is freshly
// allocated and safe to Install. A snapshot carrying a value no Registry
// publishes — a non-finite number, a cost, selectivity or transfer outside
// [0, maxValue], a rate outside [0, 1], an empty name — is refused whole:
// installed, it would fail every query naming the service as if the
// client had sent an invalid query.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var w wireSnapshot
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("adapt: decode snapshot: %w", err)
	}
	if w.Format != snapshotWireFormat {
		return nil, fmt.Errorf("adapt: decode snapshot: unsupported format %d", w.Format)
	}
	s := &Snapshot{
		Gen:         w.Gen,
		Services:    make(map[string]ServiceParams, len(w.Services)),
		Edges:       make(map[Edge]float64, len(w.Edges)),
		Reliability: make(map[string]ReliabilityParams, len(w.Reliability)),
	}
	for name, p := range w.Services {
		if name == "" || !inRange(p.Cost, maxValue) || !inRange(p.Selectivity, maxValue) {
			return nil, fmt.Errorf("adapt: decode snapshot: service %q: cost %v, selectivity %v", name, p.Cost, p.Selectivity)
		}
		s.Services[name] = p
	}
	for name, p := range w.Reliability {
		if name == "" || !inRange(p.ErrorRate, 1) || !inRange(p.SpikeRate, 1) {
			return nil, fmt.Errorf("adapt: decode snapshot: service %q: error rate %v, spike rate %v", name, p.ErrorRate, p.SpikeRate)
		}
		s.Reliability[name] = p
	}
	for _, e := range w.Edges {
		if e.From == "" || e.To == "" || !inRange(e.Transfer, maxValue) {
			return nil, fmt.Errorf("adapt: decode snapshot: edge %q->%q: transfer %v", e.From, e.To, e.Transfer)
		}
		s.Edges[Edge{From: e.From, To: e.To}] = e.Transfer
	}
	return s, nil
}

// inRange reports whether v lies in [0, hi]; NaN does not.
func inRange(v, hi float64) bool { return v >= 0 && v <= hi }

// Install adopts a remotely fitted snapshot as this registry's published
// anchor, but only when it is strictly newer than the current one —
// gossip can arrive out of order or echo a snapshot this registry itself
// published, and regressing the generation would resurrect cache entries
// the newer anchor already invalidated. Returns whether the snapshot was
// adopted. Local live estimates are untouched: the next local Observe
// drifts against the installed anchor, exactly as if it had been
// published here.
func (r *Registry) Install(s *Snapshot) bool {
	if s == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.snap.Load(); s.Gen <= cur.Gen {
		return false
	}
	r.snap.Store(s)
	r.drift = 0
	return true
}
