package planner

// Fleet export surface: the minimal hooks a multi-node deployment needs to
// shard the signature space and replicate warm entries, without exposing
// cache internals.
//
// Routing cannot use Classify: the raw-byte memo is per-process, so a
// replica that has never parsed a query's exact bytes reports TempCold
// even with the replicated plan entry resident under its signature. The
// fleet layer therefore routes on the canonical signature itself
// (SignatureFor) and probes entry residency by signature (ResidentFresh).
//
// Entry replication reuses the SOP1 snapshot codec as single-entry
// documents, so the owner→replica wire format inherits the CRC, the
// structural plan validation, and — decisively — the generation semantics:
// LoadSnapshot restamps entries from a different anchor generation with
// StaleGenSentinel, which is exactly the lazy cross-node invalidation the
// fleet wants. A replica that has not yet adopted the owner's anchor
// snapshot stores the pushed entry as stale (forwarding continues until
// gossip catches it up) instead of serving a plan fitted to parameters it
// does not hold.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"serviceordering/internal/model"
)

// SignatureFor resolves q's canonical plan signature under the current
// adaptive snapshot without touching planner counters or memo state. This
// is the fleet's shard key: FNV64 over it places q on the ring. The
// boolean is false for queries that cannot be canonicalized (nil or
// empty), which callers should serve locally.
func (p *Planner) SignatureFor(q *model.Query) (Signature, bool) {
	if p == nil || q == nil || q.N() == 0 {
		return Signature{}, false
	}
	canon, _, _ := p.canonicalPeek(q, p.adaptiveSnap())
	return canon.sig, true
}

// ResidentFresh reports whether a shareable plan entry for sig is resident
// under the current adaptive generation — the replica-warm test: answer
// locally when true, forward to the owner when false. Counter-free apart
// from clock touch maintenance.
func (p *Planner) ResidentFresh(sig Signature) bool {
	if p == nil || p.cache == nil {
		return false
	}
	e, gen, ok := p.cache.probe(sig)
	return ok && e.shareable && gen == snapGen(p.adaptiveSnap())
}

// ExportEntry serializes the resident entry under sig as a single-entry
// SOP1 document (header generation = this planner's current generation,
// entry stamped with its stored generation). Returns false when nothing
// shareable is resident — the entry may have been evicted between the
// replication decision and the async push, which is fine: replication is
// best-effort warmth, not durability.
func (p *Planner) ExportEntry(sig Signature) ([]byte, bool) {
	if p == nil || p.cache == nil {
		return nil, false
	}
	e, gen, ok := p.cache.probe(sig)
	if !ok || !e.shareable || len(e.plan) == 0 || len(e.plan) > snapshotMaxPlanLen {
		return nil, false
	}
	buf := appendSnapshotHeader(make([]byte, 0, 128), snapGen(p.adaptiveSnap()), 1)
	buf = appendSnapshotEntry(buf, sig, gen, e)
	return appendSnapshotCRC(buf), true
}

// ImportEntry restores a replicated SOP1 document (typically a single
// entry from a peer's ExportEntry, but any SaveSnapshot stream works) into
// the plan cache. fresh reports whether the document's header generation
// matched this planner's current generation — when it did not,
// LoadSnapshot stored the entries restamped as stale, so the importer's
// counters should record a stale replication.
func (p *Planner) ImportEntry(data []byte) (restored int, fresh bool, err error) {
	if p == nil {
		return 0, false, fmt.Errorf("planner: nil planner")
	}
	restored, err = p.LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		return restored, false, err
	}
	// LoadSnapshot validated length, magic, and CRC; the header generation
	// sits at a fixed offset behind them.
	headerGen := binary.LittleEndian.Uint64(data[6:])
	return restored, headerGen == snapGen(p.adaptiveSnap()), nil
}
