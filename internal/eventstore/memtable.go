package eventstore

import "github.com/aiql/aiql/internal/sysmon"

// memtable is a hypertable chunk's active write buffer: committed events
// accumulate here until a seal turns them into an immutable Segment.
// Next to the events it keeps their packed scan-key column, so the
// batch scan path reads a memtable the way it reads a sealed segment.
//
// Mutation always happens under the Store's write lock, but snapshot
// readers iterate frozen MemViews of the table with no lock held. The
// invariant that makes that safe is copy-on-write for the committed
// prefix of both slices: an in-order batch extends them with append
// (writes land past every frozen view's length), and an out-of-order
// batch builds freshly merged slices instead of sorting in place, so
// the backing arrays a MemView captured are never rewritten.
type memtable struct {
	events []sysmon.Event // sorted by StartTS
	keys   []uint64       // scanKey of each event, parallel to events
	minTS  int64
	maxTS  int64
}

// appendBatch adds a batch (already sorted by StartTS) to the memtable,
// preserving global sort order without mutating the committed prefix.
func (m *memtable) appendBatch(evs []sysmon.Event) {
	if len(evs) == 0 {
		return
	}
	first := len(m.events) == 0
	if first || evs[0].StartTS >= m.maxTS {
		// common case: agents deliver roughly in order
		m.events = append(m.events, evs...)
		m.keys = appendScanKeys(m.keys, evs)
	} else {
		// out-of-order batch: merge into fresh slices; frozen views keep
		// reading the old backing arrays untouched
		merged := make([]sysmon.Event, 0, len(m.events)+len(evs))
		i, j := 0, 0
		for i < len(m.events) && j < len(evs) {
			if m.events[i].StartTS <= evs[j].StartTS {
				merged = append(merged, m.events[i])
				i++
			} else {
				merged = append(merged, evs[j])
				j++
			}
		}
		merged = append(merged, m.events[i:]...)
		merged = append(merged, evs[j:]...)
		m.events = merged
		m.keys = appendScanKeys(make([]uint64, 0, len(merged)), merged)
	}
	if first || evs[0].StartTS < m.minTS {
		m.minTS = evs[0].StartTS
	}
	if last := m.events[len(m.events)-1].StartTS; first || last > m.maxTS {
		m.maxTS = last
	}
}

// view freezes the memtable's current contents. The returned MemView
// stays valid and immutable regardless of later appends or seals.
func (m *memtable) view() MemView {
	return MemView{events: m.events, keys: m.keys, minTS: m.minTS, maxTS: m.maxTS}
}

// MemView is a frozen, read-only view of a chunk's memtable — the
// unsealed tail a snapshot scans fresh on every query (it has no stable
// identity to cache under, unlike a sealed Segment).
type MemView struct {
	events []sysmon.Event
	keys   []uint64
	minTS  int64
	maxTS  int64
}

// Len returns the number of events in the view.
func (v *MemView) Len() int { return len(v.events) }

// TimeRange returns the minimum and maximum start timestamps.
func (v *MemView) TimeRange() (int64, int64) { return v.minTS, v.maxTS }

// overlaps reports whether the view's time range intersects [from, to).
func (v *MemView) overlaps(from, to int64) bool {
	if len(v.events) == 0 {
		return false
	}
	if from != 0 && v.maxTS < from {
		return false
	}
	if to != 0 && v.minTS >= to {
		return false
	}
	return true
}

// scan calls fn for every event passing the filter, in start-timestamp
// order; memtables are small (bounded by the seal threshold), so the
// scan is always the time-bounded sequential path. It returns false if
// fn aborted the scan.
func (v *MemView) scan(f *EventFilter, ops *[sysmon.NumOperations]bool, agents map[uint32]struct{}, fn func(*sysmon.Event) bool) bool {
	lo, hi := timeSlice(v.events, f.From, f.To)
	for i := lo; i < hi; i++ {
		ev := &v.events[i]
		if f.matches(ev, ops, agents) {
			if !fn(ev) {
				return false
			}
		}
	}
	return true
}

// estimate returns an upper bound on matching events: the time-sliced
// view size (memtables carry no posting indexes).
func (v *MemView) estimate(f *EventFilter) int {
	lo, hi := timeSlice(v.events, f.From, f.To)
	if hi < lo {
		return 0
	}
	return hi - lo
}
