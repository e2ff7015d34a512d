package planner

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"serviceordering/internal/htier"
)

// Plan-cache snapshots: the warm-boot path. A restarted node replays its
// predecessor's plan cache instead of eating a cold-start stampede where
// every miss costs ~1000× a warm hit.
//
// Format (little-endian, single CRC32-Castagnoli over everything before
// the trailer):
//
//	magic   [4]byte  "SOP1"
//	version uint16   (1)
//	gen     uint64   statistics generation at dump time
//	count   uint32   entry count
//	entries count ×:
//	  sig   [32]byte canonical signature
//	  gen   uint64   entry's generation stamp
//	  cost  uint64   Float64bits
//	  flags uint8    bit0 = optimal
//	  tier  uvarint length + bytes
//	  plan  uvarint length + length × uvarint (canonical-space ordering)
//	crc     uint32   trailer
//
// A restore is all or nothing. The whole document is decoded, and every
// entry must pass the entry checks (checkRestored: a plan that is a
// permutation, a finite non-negative cost, a tier the planner labels plans
// with) before the first entry lands; any failure refuses the document and
// leaves the cache as it was. The loader reads documents from disk at warm
// boot and from any fleet peer (ImportEntry), and every response splices
// a restored entry's bytes verbatim, so nothing it cannot serve may land.
//
// Only shareable entries are dumped — they are exactly the entries the
// cache holds, and the only ones safe to serve to other requests. The
// canonicalization memo is deliberately not snapshotted: a restored
// request pays one color-refinement pass on its first arrival and then
// hits the restored plan entry, which is the 1000× saving; the memo
// rebuilds itself behind it.
//
// Generation validation on restore is what keeps a restored node honest:
// the snapshot's header generation is compared against the loading
// planner's current registry generation, and unless they match, every
// restored entry is restamped with StaleGenSentinel so it reads as stale
// (the incumbent seed of a replan, or stale-serve material) and NEVER
// as fresh. A restarted registry loses its drift history — serving a
// possibly-drifted plan as current would be silent wrongness; serving it
// as stale is bounded regret with an honest label.

const (
	snapshotVersion = 1
	// snapshotHeaderLen is the byte length of magic, version, generation
	// and count.
	snapshotHeaderLen = 4 + 2 + 8 + 4
	// snapshotMaxEntries bounds what a restore will attempt to allocate;
	// far above any configured cache capacity, it exists to fail fast on
	// a corrupt or adversarial count field.
	snapshotMaxEntries = 1 << 22
	// snapshotMaxPlanLen bounds one entry's plan length on restore. The
	// heuristic tier accepts arbitrarily large instances, but anything
	// past the memo's raw-byte bound is never cached with a plan this
	// long in practice; 1<<16 services is comfortably past real use.
	snapshotMaxPlanLen = 1 << 16
)

var snapshotMagic = [4]byte{'S', 'O', 'P', '1'}

// StaleGenSentinel is the generation stamp LoadSnapshot rewrites entries
// with when the snapshot's world cannot be proven current. No live
// generation ever equals it (generations count up from zero), so a
// sentinel-stamped entry can only ever read as stale.
const StaleGenSentinel = ^uint64(0)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// SaveSnapshot writes the resident plan cache to w, returning the number
// of entries dumped. Concurrent serving continues: the iteration is the
// store's Range, which copies one shard at a time under that shard's read
// lock and encodes outside it, so writers wait only for a copy. Each shard
// is dumped as it stood at one instant; entries inserted mid-dump may or
// may not be included — a snapshot is a warm floor, not a transaction
// log. With caching disabled it writes a valid empty snapshot.
func (p *Planner) SaveSnapshot(w io.Writer) (int, error) {
	buf := appendSnapshotHeader(make([]byte, 0, 64<<10), snapGen(p.adaptiveSnap()), 0)
	count := uint32(0)
	if p.cache != nil {
		p.cache.store.Range(func(sig Signature, e *cacheEntry, gen uint64) bool {
			if e.shareable && len(e.plan) <= snapshotMaxPlanLen {
				buf = appendSnapshotEntry(buf, sig, gen, e)
				count++
			}
			return true
		})
	}
	binary.LittleEndian.PutUint32(buf[snapshotHeaderLen-4:], count)
	buf = appendSnapshotCRC(buf)
	if _, err := w.Write(buf); err != nil {
		return 0, fmt.Errorf("planner: snapshot write: %w", err)
	}
	return int(count), nil
}

// appendSnapshotHeader appends the SOP1 header announcing count entries
// dumped at statistics generation gen.
func appendSnapshotHeader(buf []byte, gen uint64, count uint32) []byte {
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	return binary.LittleEndian.AppendUint32(buf, count)
}

// appendSnapshotEntry appends e, resident under sig with generation stamp
// gen, as one SOP1 entry.
func appendSnapshotEntry(buf []byte, sig Signature, gen uint64, e *cacheEntry) []byte {
	buf = append(buf, sig[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(e.cost))
	var flags byte
	if e.optimal {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(e.tier)))
	buf = append(buf, e.tier...)
	buf = binary.AppendUvarint(buf, uint64(len(e.plan)))
	for _, s := range e.plan {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	return buf
}

// appendSnapshotCRC appends the SOP1 trailer: the checksum of buf.
func appendSnapshotCRC(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, snapshotCRC))
}

// LoadSnapshot restores a SaveSnapshot stream into the plan cache,
// returning the number of entries restored. The restore is all or
// nothing: the whole document is decoded and every entry checked (see
// checkRestored) before the first one lands, so a refused document —
// whatever the error — leaves the cache exactly as it was. Entries land
// through the normal bounded put path, so a snapshot larger than the
// configured capacity simply evicts down to it. Generation stamps are
// preserved verbatim only when the snapshot's header generation equals the
// current registry generation; otherwise every entry is restamped with
// StaleGenSentinel (see the package comment above — restored plans from
// an unprovable world serve as stale, never fresh).
func (p *Planner) LoadSnapshot(r io.Reader) (int, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("planner: snapshot read: %w", err)
	}
	if len(buf) < snapshotHeaderLen+4 {
		return 0, fmt.Errorf("planner: snapshot truncated (%d bytes)", len(buf))
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, snapshotCRC); got != want {
		return 0, fmt.Errorf("planner: snapshot checksum mismatch (%08x != %08x)", got, want)
	}
	if [4]byte(body[:4]) != snapshotMagic {
		return 0, fmt.Errorf("planner: snapshot bad magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != snapshotVersion {
		return 0, fmt.Errorf("planner: snapshot version %d, supported %d", v, snapshotVersion)
	}
	headerGen := binary.LittleEndian.Uint64(body[6:])
	count := binary.LittleEndian.Uint32(body[14:])
	if count > snapshotMaxEntries {
		return 0, fmt.Errorf("planner: snapshot claims %d entries (max %d)", count, snapshotMaxEntries)
	}
	sameWorld := headerGen == snapGen(p.adaptiveSnap())

	rd := body[snapshotHeaderLen:]
	need := func(n int) error {
		if len(rd) < n {
			return fmt.Errorf("planner: snapshot truncated inside entry")
		}
		return nil
	}
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, fmt.Errorf("planner: snapshot bad varint")
		}
		rd = rd[n:]
		return v, nil
	}

	type restoredEntry struct {
		sig   Signature
		gen   uint64
		entry *cacheEntry
	}
	var entries []restoredEntry
	for i := uint32(0); i < count; i++ {
		if err := need(32 + 8 + 8 + 1); err != nil {
			return 0, err
		}
		var sig Signature
		copy(sig[:], rd)
		gen := binary.LittleEndian.Uint64(rd[32:])
		cost := floatFromBits(binary.LittleEndian.Uint64(rd[40:]))
		flags := rd[48]
		rd = rd[49:]
		tierLen, err := uvarint()
		if err != nil {
			return 0, err
		}
		if tierLen > 256 {
			return 0, fmt.Errorf("planner: snapshot tier length %d", tierLen)
		}
		if err := need(int(tierLen)); err != nil {
			return 0, err
		}
		tier := string(rd[:tierLen])
		rd = rd[tierLen:]
		planLen, err := uvarint()
		if err != nil {
			return 0, err
		}
		if planLen > snapshotMaxPlanLen {
			return 0, fmt.Errorf("planner: snapshot plan length %d (max %d)", planLen, snapshotMaxPlanLen)
		}
		plan := make([]int, planLen)
		for j := range plan {
			v, err := uvarint()
			if err != nil {
				return 0, err
			}
			// Clamped so an out-of-range service stays out of range as an
			// int, for checkRestored to refuse.
			plan[j] = int(min(v, planLen))
		}
		if err := checkRestored(plan, cost, tier); err != nil {
			return 0, fmt.Errorf("planner: snapshot entry %d: %w", i, err)
		}
		if !sameWorld {
			gen = StaleGenSentinel
		}
		entry := &cacheEntry{
			plan:      plan,
			cost:      cost,
			optimal:   flags&1 != 0,
			tier:      tier,
			shareable: true,
		}
		entry.frag = appendResultFragment(make([]byte, 0, 128), cost, entry.optimal, sig, tier)
		entries = append(entries, restoredEntry{sig, gen, entry})
	}
	if len(rd) != 0 {
		return 0, fmt.Errorf("planner: snapshot has %d trailing bytes", len(rd))
	}
	if p.cache == nil {
		return 0, nil
	}
	for _, e := range entries {
		p.cache.put(e.sig, e.entry, e.gen)
	}
	return len(entries), nil
}

// checkRestored is what every SOP1 entry must pass before anything is
// restored. The CRC proves only that the bytes arrived as they were
// written; these checks prove the writer wrote something a response can
// carry: a plan that is a permutation of [0, len) (a canonical-space
// ordering), a finite non-negative cost (encoding/json refuses NaN, so a
// NaN cost would corrupt every response spliced from the entry), and a
// tier the planner itself labels plans with (the tier is spliced into
// responses verbatim). One check cannot be made here: whether the plan
// holds one position per service of the queries the signature names, as
// the signature does not carry the service count. canonical.answer
// refuses such an entry at lookup instead.
func checkRestored(plan []int, cost float64, tier string) error {
	if len(plan) == 0 {
		return fmt.Errorf("empty plan")
	}
	seen := make([]bool, len(plan))
	for _, s := range plan {
		if s < 0 || s >= len(plan) || seen[s] {
			return fmt.Errorf("%d-service plan is not a permutation", len(plan))
		}
		seen[s] = true
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 0 {
		return fmt.Errorf("cost %v", cost)
	}
	member, heuristic := strings.CutPrefix(tier, tierHeuristicPrefix)
	switch {
	case tier == TierExact, tier == tierIncumbent:
	case heuristic && slices.Contains(heuristicMembers, member):
	default:
		return fmt.Errorf("tier %q", tier)
	}
	return nil
}

// heuristicMembers are the portfolio members whose plans the heuristic
// tier labels "heuristic/<member>".
var heuristicMembers = []string{htier.MemberSeed, htier.MemberGreedyEpsilon, htier.MemberGreedyTransfer,
	htier.MemberBeam, htier.MemberLocalSearch}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
