package eventstore

import (
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// errNoReader latches in a column cursor whose segment lost its file
// backing (a lazy open that failed); the data reads as absent.
var errNoReader = errors.New("eventstore: segment file unavailable")

// This file is the batch-oriented scan path: instead of invoking a
// callback per event, a unit's events are filtered a block at a time
// into a selection bitmap — one predicate pass over the whole block,
// then the next pass over the survivors — and only the surviving
// events are copied out. The per-event work for rejected events drops
// to roughly one comparison plus a bit clear, cancellation checks
// amortize to one per block, and the emitted batches are exactly the
// shape the engine's segment scan cache stores.

// batchBlockEvents is the number of events filtered per selection
// bitmap. Small enough that a block's bitmap lives in registers/L1,
// large enough to amortize the per-block pass setup and ctx check.
const batchBlockEvents = 1024

const batchBlockWords = batchBlockEvents / 64

type blockBitmap [batchBlockWords]uint64

// scanKey packs an event's cheap scalar predicates into one word so
// the dense filter pass streams 8 bytes per event instead of the whole
// event struct. Layout: agent in bits 63-32, op in 31-16, object type
// in 15-8; the low byte stays zero. The packing is shared with the v2
// segment format's persisted key column (durable.ColKey), which is what
// lets the bitmap loop read the mmap'd file directly.
func scanKey(agent uint32, op sysmon.Operation, t sysmon.EntityType) uint64 {
	return durable.ScanKey(agent, uint16(op), uint8(t))
}

// appendScanKeys appends the scan key of every event to keys. Memtable
// commits and compaction merges build a run's key column with it, so
// every scan unit carries the column the bitmap loop reads.
func appendScanKeys(keys []uint64, events []sysmon.Event) []uint64 {
	keys = slices.Grow(keys, len(events))
	for i := range events {
		ev := &events[i]
		keys = append(keys, scanKey(ev.AgentID, ev.Op, ev.ObjType))
	}
	return keys
}

const (
	scanKeyAgentMask = uint64(0xFFFFFFFF) << 32
	scanKeyOpMask    = uint64(0xFFFF) << 16
	scanKeyTypeMask  = uint64(0xFF) << 8
)

// CompiledFilter carries an EventFilter together with its derived
// lookup structures (op table, agent set, and the mask/want pair for
// the packed key column), computed once per scan instead of once per
// unit.
type CompiledFilter struct {
	f      *EventFilter
	ops    *[sysmon.NumOperations]bool
	agents map[uint32]struct{}

	// mask/want fold every single-valued scalar predicate into one
	// masked compare over the key column; multi-valued agent/op sets
	// fall through to the residual set probes (needAgents/needOps).
	mask, want uint64
	needAgents bool
	needOps    bool

	// amtMin/amtMax are the filter's amount range with open ends
	// widened to the full uint64 range; needAmount is false when both
	// ends are open.
	amtMin, amtMax uint64
	needAmount     bool
}

// Compile precomputes the filter's scan-time lookup structures. The
// filter must not be mutated while the compiled form is in use.
func (f *EventFilter) Compile() *CompiledFilter {
	cf := &CompiledFilter{f: f, ops: f.opSet(), agents: f.agentSet()}
	switch {
	case len(f.Agents) == 1:
		cf.mask |= scanKeyAgentMask
		cf.want |= uint64(f.Agents[0]) << 32
	case cf.agents != nil:
		cf.needAgents = true
	}
	switch {
	case len(f.Ops) == 1 && int(f.Ops[0]) < sysmon.NumOperations:
		cf.mask |= scanKeyOpMask
		cf.want |= uint64(f.Ops[0]) << 16
	case cf.ops != nil:
		cf.needOps = true
	}
	if f.ObjType != sysmon.EntityInvalid {
		cf.mask |= scanKeyTypeMask
		cf.want |= uint64(f.ObjType) << 8
	}
	cf.amtMin, cf.amtMax = f.MinAmount, f.MaxAmount
	if cf.amtMax == 0 {
		cf.amtMax = ^uint64(0)
	}
	cf.needAmount = f.MinAmount != 0 || f.MaxAmount != 0
	return cf
}

// CollectBatch gathers the unit's events passing the filter — and the
// keep predicate, when non-nil — into a batch, in start-timestamp
// order. visited counts the events that passed the filter (the same
// events the callback path would visit), and complete is false when
// ctx aborted the scan mid-unit, in which case the partial batch must
// not be cached.
//
// Sealed segments with built indexes take the posting-list path when
// bestPostingList applies (the list is already sparse, so a bitmap
// buys nothing); everything else — memtable tails included — goes
// through the block-filtered dense path over the unit's key column.
func (u *ScanUnit) CollectBatch(ctx context.Context, cf *CompiledFilter, keep func(*sysmon.Event) bool) (batch []sysmon.Event, visited int64, complete bool) {
	return u.CollectBatchInto(ctx, cf, keep, nil)
}

// CollectBatchInto is CollectBatch appending into buf (which must be
// empty but may carry capacity), letting a sequential caller that does
// not retain batches — no scan cache to fill — reuse one scratch
// buffer across units instead of allocating per unit.
func (u *ScanUnit) CollectBatchInto(ctx context.Context, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	if g := u.seg; g != nil {
		if g.fileBacked() {
			// Open a lazily restored segment before choosing a path:
			// the column paths below peek at its reader.
			g.fileReader()
		}
		if g.indexed && (g.ready.Load() || (g.fileBacked() && g.postingApplicable(cf.f) && g.ensureIndexes())) {
			if list, ok := g.bestPostingList(cf.f); ok {
				if events := g.loadedEvents(); events != nil {
					return collectPostings(ctx, events, list, cf, keep, buf)
				}
				return collectPostingsCols(ctx, g, list, cf, keep, buf)
			}
		}
		if events := g.loadedEvents(); events != nil {
			return collectBlocksKeys(ctx, events, g.keyColumn(), cf, keep, buf)
		}
		return collectBlocksCols(ctx, g, cf, keep, buf)
	}
	return collectBlocksKeys(ctx, u.mem.events, u.mem.keys, cf, keep, buf)
}

// colCursor streams one column of a reader-backed segment by absolute
// event position, memoizing the current decoded block. Scan positions
// are monotonically increasing, so each file block is fetched at most
// once per pass; decoded (non-zero-copy) blocks go through the store's
// block cache so a warm re-scan touches no codec at all. The first
// decode failure latches in err and subsequent reads return zeros — the
// caller checks err at block boundaries and treats the data as absent.
type colCursor struct {
	g       *Segment
	rd      *durable.SegmentReader
	col     int
	blk     int
	data    []byte
	scratch []byte
	err     error
}

func newColCursor(g *Segment, col int) colCursor {
	return colCursor{g: g, rd: g.reader(), col: col, blk: -1}
}

func (c *colCursor) block(blk int) []byte {
	if blk == c.blk {
		return c.data
	}
	g := c.g
	if data, ok := g.bc.get(g.id, uint8(c.col), uint32(blk)); ok {
		c.blk, c.data = blk, data
		return data
	}
	if c.rd == nil {
		c.err = errNoReader
		c.blk, c.data = blk, nil
		return nil
	}
	if c.scratch == nil {
		c.scratch = make([]byte, 0, batchBlockEvents*8)
	}
	data, zeroCopy, err := c.rd.Block(c.col, blk, c.scratch)
	if err != nil {
		c.err = err
		c.blk, c.data = blk, nil
		return nil
	}
	if !zeroCopy && g.bc != nil {
		owned := make([]byte, len(data))
		copy(owned, data)
		g.bc.put(g.id, uint8(c.col), uint32(blk), owned)
		data = owned
	}
	c.blk, c.data = blk, data
	return data
}

func (c *colCursor) u64(pos int) uint64 {
	b := c.block(pos >> 10)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[(pos&(batchBlockEvents-1))*8:])
}

func (c *colCursor) u32(pos int) uint32 {
	b := c.block(pos >> 10)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[(pos&(batchBlockEvents-1))*4:])
}

// gatherEvent assembles one whole event from the per-attribute columns:
// agent, op, and object type unpack from the scan key; the remaining
// fields gather from their column cursors.
type colGather struct {
	g                           *Segment
	ts                          []int64
	id, sub, obj, end, amt, seq colCursor
}

func newColGather(g *Segment, ts []int64) *colGather {
	return &colGather{
		g:   g,
		ts:  ts,
		id:  newColCursor(g, durable.ColID),
		sub: newColCursor(g, durable.ColSubject),
		obj: newColCursor(g, durable.ColObject),
		end: newColCursor(g, durable.ColEndTS),
		amt: newColCursor(g, durable.ColAmount),
		seq: newColCursor(g, durable.ColSeq),
	}
}

func (cg *colGather) event(pos int, key uint64) sysmon.Event {
	return sysmon.Event{
		ID:      cg.id.u64(pos),
		AgentID: uint32(key >> 32),
		Subject: sysmon.EntityID(cg.sub.u32(pos)),
		Op:      sysmon.Operation((key >> 16) & 0xFFFF),
		ObjType: sysmon.EntityType((key >> 8) & 0xFF),
		Object:  sysmon.EntityID(cg.obj.u32(pos)),
		StartTS: cg.ts[pos],
		EndTS:   int64(cg.end.u64(pos)),
		Amount:  cg.amt.u64(pos),
		Seq:     cg.seq.u64(pos),
	}
}

// cursorErr returns the first decode failure across the gather's
// cursors, if any.
func (cg *colGather) cursorErr() error {
	for _, c := range []*colCursor{&cg.id, &cg.sub, &cg.obj, &cg.end, &cg.amt, &cg.seq} {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// collectPostings walks a merged posting list (position-sorted, so the
// output stays time-ordered), re-checking the full filter per entry:
// posting lists are keyed on one endpoint only.
func collectPostings(ctx context.Context, events []sysmon.Event, list []int32, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	for n, pos := range list {
		if n%scanCheckInterval == scanCheckInterval-1 && ctx.Err() != nil {
			return batch, visited, false
		}
		ev := &events[pos]
		if !cf.f.matches(ev, cf.ops, cf.agents) {
			continue
		}
		visited++
		if keep == nil || keep(ev) {
			batch = append(batch, *ev)
		}
	}
	return batch, visited, true
}

// collectBlocksKeys is the dense path over a resident event array
// (memtable tail or heap segment): time-slice the sorted run, then
// filter each block through selection-bitmap passes. The scalar
// predicates run over the unit's packed key column — one masked compare
// per event streaming 8 bytes instead of the 56-byte struct — and only
// surviving events are read from the event array. Events inside the
// slice already satisfy From/To (the run is sorted by StartTS), so the
// time predicates need no pass.
func collectBlocksKeys(ctx context.Context, events []sysmon.Event, keys []uint64, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	lo, hi := timeSlice(events, cf.f.From, cf.f.To)
	var sel blockBitmap
	for base := lo; base < hi; base += batchBlockEvents {
		if ctx.Err() != nil {
			return batch, visited, false
		}
		n := hi - base
		if n > batchBlockEvents {
			n = batchBlockEvents
		}
		blk := events[base : base+n]
		live := filterBlockKeys(blk, keys[base:base+n], cf, &sel)
		if live == 0 {
			continue
		}
		visited += int64(live)
		// Grow for this block's survivors in one step: the append loop
		// below would otherwise reallocate along the doubling chain.
		batch = slices.Grow(batch, live)
		words := (n + 63) / 64
		for w := 0; w < words; w++ {
			for b := sel[w]; b != 0; b &= b - 1 {
				ev := &blk[w<<6+bits.TrailingZeros64(b)]
				if keep == nil || keep(ev) {
					batch = append(batch, *ev)
				}
			}
		}
	}
	return batch, visited, true
}

// collectBlocksCols is the dense path over a reader-backed (v2)
// segment that has never been materialized: the scalar predicates run
// over the mmap'd scan-key column exactly like collectBlocksKeys, but
// residual set probes and survivor materialization gather from the
// per-attribute column vectors instead of an AoS event array — the
// 56-byte structs are assembled only for events that pass everything
// else. On a decode error the remaining data reads as absent: the
// error is recorded with the store and the batch built so far stands.
func collectBlocksCols(ctx context.Context, g *Segment, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	keys := g.keyColumn()
	ts := g.tsColumn()
	if keys == nil || len(ts) != len(keys) {
		return batch, 0, true // column unreadable; recorded by keyColumn
	}
	lo, hi := timeSliceTS(ts, cf.f.From, cf.f.To)
	gather := newColGather(g, ts)
	var sel blockBitmap
	var ev sysmon.Event
	for base := lo; base < hi; base += batchBlockEvents {
		if ctx.Err() != nil {
			return batch, visited, false
		}
		n := hi - base
		if n > batchBlockEvents {
			n = batchBlockEvents
		}
		live := filterBlockKeysCols(keys[base:base+n], base, gather, cf, &sel)
		if err := gather.cursorErr(); err != nil {
			g.fail(err)
			return batch, visited, true
		}
		if live == 0 {
			continue
		}
		visited += int64(live)
		batch = slices.Grow(batch, live)
		mark := len(batch)
		words := (n + 63) / 64
		for w := 0; w < words; w++ {
			for b := sel[w]; b != 0; b &= b - 1 {
				pos := base + w<<6 + bits.TrailingZeros64(b)
				ev = gather.event(pos, keys[pos])
				if keep == nil || keep(&ev) {
					batch = append(batch, ev)
				}
			}
		}
		if err := gather.cursorErr(); err != nil {
			g.fail(err)
			return batch[:mark], visited - int64(live), true
		}
	}
	return batch, visited, true
}

// collectPostingsCols walks a merged posting list gathering candidate
// events from the column vectors, re-checking the full filter per
// entry: posting lists are keyed on one endpoint only. Positions in a
// posting list ascend, so the cursors stream forward here too.
func collectPostingsCols(ctx context.Context, g *Segment, list []int32, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	keys := g.keyColumn()
	ts := g.tsColumn()
	if keys == nil || len(ts) != len(keys) {
		return batch, 0, true
	}
	gather := newColGather(g, ts)
	var ev sysmon.Event
	for n, pos := range list {
		if n%scanCheckInterval == scanCheckInterval-1 && ctx.Err() != nil {
			return batch, visited, false
		}
		if int(pos) >= len(keys) {
			continue
		}
		ev = gather.event(int(pos), keys[pos])
		if err := gather.cursorErr(); err != nil {
			g.fail(err)
			return batch, visited, true
		}
		if !cf.f.matches(&ev, cf.ops, cf.agents) {
			continue
		}
		visited++
		if keep == nil || keep(&ev) {
			batch = append(batch, ev)
		}
	}
	return batch, visited, true
}

// filterKeys runs the key-only stage of a block's filter into the
// selection bitmap, the same for every unit layout: every single-valued
// scalar predicate (agent, op, object type) folds into one dense
// branchless masked compare, then multi-valued agent/op sets probe the
// key column for survivors only. It returns zero when no event of the
// block survives.
func filterKeys(keys []uint64, cf *CompiledFilter, sel *blockBitmap) uint64 {
	n := len(keys)
	words := (n + 63) / 64
	var any uint64
	if cf.mask != 0 {
		mask, want := cf.mask, cf.want
		base, w := 0, 0
		// Full words unrolled 4-wide into independent accumulators:
		// the compare chains have no carried dependency, so the CPU
		// overlaps them — measurably faster than the rolled loop.
		for ; base+64 <= n; base, w = base+64, w+1 {
			run := keys[base : base+64 : base+64]
			var m0, m1, m2, m3 uint64
			for i := 0; i < 64; i += 4 {
				var b0, b1, b2, b3 uint64
				if run[i]&mask == want {
					b0 = 1
				}
				if run[i+1]&mask == want {
					b1 = 1
				}
				if run[i+2]&mask == want {
					b2 = 1
				}
				if run[i+3]&mask == want {
					b3 = 1
				}
				m0 |= b0 << uint(i)
				m1 |= b1 << uint(i+1)
				m2 |= b2 << uint(i+2)
				m3 |= b3 << uint(i+3)
			}
			m := m0 | m1 | m2 | m3
			sel[w] = m
			any |= m
		}
		if base < n {
			run := keys[base:n]
			var m uint64
			for i := range run {
				var bit uint64
				if run[i]&mask == want {
					bit = 1
				}
				m |= bit << uint(i)
			}
			sel[w] = m
			any |= m
		}
	} else {
		for w := 0; w < words; w++ {
			sel[w] = ^uint64(0)
		}
		if tail := n & 63; tail != 0 {
			sel[words-1] = 1<<uint(tail) - 1
		}
		any = 1
	}
	if any == 0 {
		return 0
	}

	if cf.needAgents {
		any = 0
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if _, ok := cf.agents[uint32(keys[w<<6+tz]>>32)]; !ok {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		if any == 0 {
			return 0
		}
	}

	if cf.needOps {
		any = 0
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !cf.ops[sysmon.Operation(keys[w<<6+tz]>>16)&0xFFFF] {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
	}
	return any
}

// filterBlockKeys narrows the selection bitmap of one block of a
// resident event array: the key-only stage (filterKeys), then the
// entity sets and the amount range probe the surviving events. It
// returns the surviving count. Predicate semantics mirror
// EventFilter.matches exactly (minus From/To, which the caller's time
// slice already guarantees).
func filterBlockKeys(blk []sysmon.Event, keys []uint64, cf *CompiledFilter, sel *blockBitmap) int {
	if filterKeys(keys, cf, sel) == 0 {
		return 0
	}
	words := (len(keys) + 63) / 64
	f := cf.f
	if f.Subjects != nil {
		var any uint64
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Subjects.Has(blk[w<<6+tz].Subject) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		if any == 0 {
			return 0
		}
	}

	if f.Objects != nil {
		var any uint64
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Objects.Has(blk[w<<6+tz].Object) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		if any == 0 {
			return 0
		}
	}

	if cf.needAmount {
		lo, hi := cf.amtMin, cf.amtMax
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if a := blk[w<<6+tz].Amount; a < lo || a > hi {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}

	live := 0
	for w := 0; w < words; w++ {
		live += bits.OnesCount64(sel[w])
	}
	return live
}

// filterBlockKeysCols is filterBlockKeys with the residual probes
// (entity sets, amount range) reading the column vectors at absolute
// positions instead of an AoS block. Each probe decodes its column's
// blocks only where events survived the passes before it, so the
// columns a survivor's gather needs beyond these are decoded only for
// events that pass the whole filter.
func filterBlockKeysCols(keys []uint64, base int, gather *colGather, cf *CompiledFilter, sel *blockBitmap) int {
	if filterKeys(keys, cf, sel) == 0 {
		return 0
	}
	words := (len(keys) + 63) / 64
	f := cf.f
	if f.Subjects != nil {
		var any uint64
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Subjects.Has(sysmon.EntityID(gather.sub.u32(base + w<<6 + tz))) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		if any == 0 {
			return 0
		}
	}

	if f.Objects != nil {
		var any uint64
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Objects.Has(sysmon.EntityID(gather.obj.u32(base + w<<6 + tz))) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		if any == 0 {
			return 0
		}
	}

	if cf.needAmount {
		lo, hi := cf.amtMin, cf.amtMax
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if a := gather.amt.u64(base + w<<6 + tz); a < lo || a > hi {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}

	live := 0
	for w := 0; w < words; w++ {
		live += bits.OnesCount64(sel[w])
	}
	return live
}
