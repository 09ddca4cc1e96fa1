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

const (
	scanKeyAgentMask = uint64(0xFFFFFFFF) << 32
	scanKeyOpMask    = uint64(0xFFFF) << 16
	scanKeyTypeMask  = uint64(0xFF) << 8
)

// CompiledFilter carries an EventFilter together with its derived
// lookup structures (op table, agent set, single-value fast paths, and
// the mask/want pair for the packed key column), computed once per
// scan instead of once per unit.
type CompiledFilter struct {
	f      *EventFilter
	ops    *[sysmon.NumOperations]bool
	agents map[uint32]struct{}

	oneAgent    uint32
	hasOneAgent bool
	oneOp       sysmon.Operation
	hasOneOp    bool

	// mask/want fold every single-valued scalar predicate into one
	// masked compare over the key column; multi-valued agent/op sets
	// fall through to the residual set probes (needAgents/needOps).
	mask, want uint64
	needAgents bool
	needOps    bool
}

// Compile precomputes the filter's scan-time lookup structures. The
// filter must not be mutated while the compiled form is in use.
func (f *EventFilter) Compile() *CompiledFilter {
	cf := &CompiledFilter{f: f, ops: f.opSet(), agents: f.agentSet()}
	if len(f.Agents) == 1 {
		cf.oneAgent, cf.hasOneAgent = f.Agents[0], true
	}
	if len(f.Ops) == 1 && int(f.Ops[0]) < sysmon.NumOperations {
		cf.oneOp, cf.hasOneOp = f.Ops[0], true
	}
	switch {
	case cf.hasOneAgent:
		cf.mask |= scanKeyAgentMask
		cf.want |= uint64(cf.oneAgent) << 32
	case cf.agents != nil:
		cf.needAgents = true
	}
	switch {
	case cf.hasOneOp:
		cf.mask |= scanKeyOpMask
		cf.want |= uint64(cf.oneOp) << 16
	case cf.ops != nil:
		cf.needOps = true
	}
	if f.ObjType != sysmon.EntityInvalid {
		cf.mask |= scanKeyTypeMask
		cf.want |= uint64(f.ObjType) << 8
	}
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
// buys nothing); everything else goes through the block-filtered
// dense path.
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
	return collectBlocks(ctx, u.mem.events, cf, keep, buf)
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

// collectBlocks runs the dense path: time-slice the sorted run, then
// filter each block through selection-bitmap predicate passes. Events
// inside the slice already satisfy From/To (the run is sorted by
// StartTS), so the time predicates need no pass.
func collectBlocks(ctx context.Context, events []sysmon.Event, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
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
		live := filterBlock(blk, cf, &sel)
		if live == 0 {
			continue
		}
		visited += int64(live)
		// Grow for this block's survivors in one step: the append loop
		// below would otherwise reallocate along the doubling chain,
		// which dominates the cold path's allocation cost.
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

// collectBlocksKeys is the sealed-segment dense path: like
// collectBlocks, but the scalar predicates run over the segment's
// packed key column — one masked compare per event streaming 8 bytes
// instead of the 56-byte struct — and only surviving events are read
// from the event array.
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

// filterBlockKeysCols is filterBlockKeys with the residual probes
// (entity sets, amount bound) reading the column vectors at absolute
// positions instead of an AoS block. The dense masked-compare pass over
// the key column is shared verbatim.
func filterBlockKeysCols(keys []uint64, base int, gather *colGather, cf *CompiledFilter, sel *blockBitmap) int {
	n := len(keys)
	words := (n + 63) / 64
	any := filterKeysDense(keys, cf, sel)
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
		if any == 0 {
			return 0
		}
	}

	f := cf.f
	if f.Subjects != nil {
		any = 0
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
		any = 0
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

	if f.MinAmount != 0 {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if gather.amt.u64(base+w<<6+tz) < f.MinAmount {
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

// filterKeysDense runs the masked-compare pass of the key column into
// the selection bitmap (the first, dense stage shared by the AoS-block
// and columnar key paths), returning an any-survivors word.
func filterKeysDense(keys []uint64, cf *CompiledFilter, sel *blockBitmap) uint64 {
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
	return any
}

// filterBlockKeys narrows the selection bitmap using the packed key
// column: every single-valued scalar predicate (agent, op, object
// type) folds into one dense branchless masked compare; multi-valued
// agent/op sets probe the key column for survivors only; entity sets
// and the amount bound then touch the surviving events. Predicate
// semantics mirror EventFilter.matches exactly (minus From/To, which
// the caller's time slice already guarantees).
func filterBlockKeys(blk []sysmon.Event, keys []uint64, cf *CompiledFilter, sel *blockBitmap) int {
	n := len(keys)
	words := (n + 63) / 64
	any := filterKeysDense(keys, cf, sel)
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
		if any == 0 {
			return 0
		}
	}

	f := cf.f
	if f.Subjects != nil {
		any = 0
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
		any = 0
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

	if f.MinAmount != 0 {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if blk[w<<6+tz].Amount < f.MinAmount {
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

// filterBlock narrows the selection bitmap with one pass per active
// predicate, cheapest scalar comparisons first so later set probes
// only touch survivors, and returns the surviving count. Predicate
// semantics mirror EventFilter.matches exactly (minus From/To, which
// the caller's time slice already guarantees).
func filterBlock(blk []sysmon.Event, cf *CompiledFilter, sel *blockBitmap) int {
	n := len(blk)
	words := (n + 63) / 64
	for w := 0; w < words; w++ {
		sel[w] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		sel[words-1] = 1<<uint(tail) - 1
	}
	f := cf.f
	any := uint64(1)

	// The first active pass sees an all-ones bitmap, where iterating
	// set bits costs more than just visiting every event: the scalar
	// predicates (agent, op, object type) get dense branchless kernels
	// that build each selection word directly, and whichever of them
	// runs first takes its dense form. Later passes see a thinned
	// bitmap, so they iterate set bits.
	dense := true

	if cf.hasOneAgent {
		any = denseOneAgent(blk, cf.oneAgent, sel)
		dense = false
	} else if cf.agents != nil {
		any = 0
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if _, ok := cf.agents[blk[w<<6+tz].AgentID]; !ok {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
			any |= b
		}
		dense = false
	}
	if any == 0 {
		return 0
	}

	if cf.hasOneOp {
		if dense {
			any = denseOneOp(blk, cf.oneOp, sel)
		} else {
			any = 0
			for w := 0; w < words; w++ {
				b := sel[w]
				for r := b; r != 0; r &= r - 1 {
					tz := bits.TrailingZeros64(r)
					if blk[w<<6+tz].Op != cf.oneOp {
						b &^= 1 << uint(tz)
					}
				}
				sel[w] = b
				any |= b
			}
		}
		dense = false
	} else if cf.ops != nil {
		if dense {
			any = denseOps(blk, cf.ops, sel)
		} else {
			any = 0
			for w := 0; w < words; w++ {
				b := sel[w]
				for r := b; r != 0; r &= r - 1 {
					tz := bits.TrailingZeros64(r)
					if !cf.ops[blk[w<<6+tz].Op] {
						b &^= 1 << uint(tz)
					}
				}
				sel[w] = b
				any |= b
			}
		}
		dense = false
	}
	if any == 0 {
		return 0
	}

	if f.ObjType != sysmon.EntityInvalid {
		if dense {
			any = denseObjType(blk, f.ObjType, sel)
		} else {
			any = 0
			for w := 0; w < words; w++ {
				b := sel[w]
				for r := b; r != 0; r &= r - 1 {
					tz := bits.TrailingZeros64(r)
					if blk[w<<6+tz].ObjType != f.ObjType {
						b &^= 1 << uint(tz)
					}
				}
				sel[w] = b
				any |= b
			}
		}
		dense = false
	}
	if any == 0 {
		return 0
	}

	if f.Subjects != nil {
		any = 0
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
	}
	if any == 0 {
		return 0
	}

	if f.Objects != nil {
		any = 0
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
	}
	if any == 0 {
		return 0
	}

	if f.MinAmount != 0 {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if blk[w<<6+tz].Amount < f.MinAmount {
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

// The dense kernels build a selection word per 64 events with a
// branchless compare-and-or, so the first predicate pass costs about
// one comparison per event with no bitmap bookkeeping. They are
// deliberately monomorphic: a shared kernel taking a predicate closure
// would pay an uninlinable call per event, which is the cost the block
// path exists to avoid.

func denseOneAgent(blk []sysmon.Event, agent uint32, sel *blockBitmap) uint64 {
	var any uint64
	for base, w := 0, 0; base < len(blk); base, w = base+64, w+1 {
		run := blk[base:min(base+64, len(blk))]
		var m uint64
		for i := range run {
			var bit uint64
			if run[i].AgentID == agent {
				bit = 1
			}
			m |= bit << uint(i)
		}
		sel[w] = m
		any |= m
	}
	return any
}

func denseOneOp(blk []sysmon.Event, op sysmon.Operation, sel *blockBitmap) uint64 {
	var any uint64
	for base, w := 0, 0; base < len(blk); base, w = base+64, w+1 {
		run := blk[base:min(base+64, len(blk))]
		var m uint64
		for i := range run {
			var bit uint64
			if run[i].Op == op {
				bit = 1
			}
			m |= bit << uint(i)
		}
		sel[w] = m
		any |= m
	}
	return any
}

func denseOps(blk []sysmon.Event, ops *[sysmon.NumOperations]bool, sel *blockBitmap) uint64 {
	var any uint64
	for base, w := 0, 0; base < len(blk); base, w = base+64, w+1 {
		run := blk[base:min(base+64, len(blk))]
		var m uint64
		for i := range run {
			var bit uint64
			if ops[run[i].Op] {
				bit = 1
			}
			m |= bit << uint(i)
		}
		sel[w] = m
		any |= m
	}
	return any
}

func denseObjType(blk []sysmon.Event, t sysmon.EntityType, sel *blockBitmap) uint64 {
	var any uint64
	for base, w := 0, 0; base < len(blk); base, w = base+64, w+1 {
		run := blk[base:min(base+64, len(blk))]
		var m uint64
		for i := range run {
			var bit uint64
			if run[i].ObjType == t {
				bit = 1
			}
			m |= bit << uint(i)
		}
		sel[w] = m
		any |= m
	}
	return any
}
