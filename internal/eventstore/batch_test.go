package eventstore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// batchRecords returns n randomized records — several agents, ops
// across every family, varied amounts — at minutes in [lo, lo+span).
func batchRecords(rng *rand.Rand, n, lo, span int) []Record {
	exes := []string{"bash", "vim", "curl", "python", "sshd"}
	ops := []sysmon.Operation{
		sysmon.OpStart, sysmon.OpRead, sysmon.OpWrite, sysmon.OpDelete,
		sysmon.OpConnect, sysmon.OpSend,
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := mkRecord(uint32(1+rng.Intn(4)), exes[rng.Intn(len(exes))],
			ops[rng.Intn(len(ops))], "obj.txt", lo+rng.Intn(span))
		r.Amount = uint64(rng.Intn(200))
		recs = append(recs, r)
	}
	return recs
}

// buildBatchStore commits a randomized event mix, leaving part of it
// sealed and part in memtables.
func buildBatchStore(t *testing.T, sealed, unsealed int) *Store {
	t.Helper()
	s := New(DefaultOptions())
	rng := rand.New(rand.NewSource(11))
	s.AppendAll(batchRecords(rng, sealed, 0, 600))
	s.Flush()
	s.AppendAll(batchRecords(rng, unsealed, 0, 600))
	return s
}

type namedSnapshot struct {
	name string
	snap *Snapshot
}

// batchSnapshots returns snapshots covering every unit layout the batch
// collector reads: heap-sealed segments beside memtable tails, a
// memtable that merged an out-of-order batch, a view frozen before that
// merge and scanned after it, compacted segments, and the file-backed
// segments of a store reopened from its directory.
func batchSnapshots(t *testing.T) []namedSnapshot {
	t.Helper()
	out := []namedSnapshot{{"sealed and memtable", buildBatchStore(t, 3000, 500).Snapshot()}}

	// One unpartitioned memtable: the second batch starts before the
	// first one's last event, so it takes the copy-on-write merge.
	rng := rand.New(rand.NewSource(12))
	opts := DefaultOptions()
	opts.Partitioning = false
	mem := New(opts)
	mem.AppendAll(batchRecords(rng, 700, 300, 300))
	frozen := mem.Snapshot()
	mem.AppendAll(batchRecords(rng, 700, 0, 600))
	if min, _ := mem.Snapshot().parts[0].mem.TimeRange(); min >= frozen.parts[0].mem.minTS {
		t.Fatal("second batch did not land before the first")
	}
	out = append(out,
		namedSnapshot{"memtable frozen before merge", frozen},
		namedSnapshot{"merged memtable", mem.Snapshot()})

	// Several flushes leave chains of small segments per chunk, which
	// compaction merges into one heap segment each.
	comp := New(DefaultOptions())
	for b := 0; b < 4; b++ {
		comp.AppendAll(batchRecords(rng, 400, 0, 600))
		comp.Flush()
	}
	if res := comp.Compact(); res.Passes == 0 {
		t.Fatal("compaction found no work")
	}
	out = append(out, namedSnapshot{"compacted", comp.Snapshot()})

	// A saved directory reopens with lazily file-backed segments; the
	// reopened store takes a fresh memtable tail on top.
	dir := t.TempDir()
	saved := New(DefaultOptions())
	saved.AppendAll(batchRecords(rng, 3000, 0, 600))
	if err := saved.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	opts = DefaultOptions()
	opts.Dir = dir
	reopened, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	reopened.AppendAll(batchRecords(rng, 300, 0, 600))
	out = append(out, namedSnapshot{"reopened directory", reopened.Snapshot()})
	return out
}

// TestCollectBatchMatchesScan cross-checks the bitmap batch collector
// — dense masked-compare over the packed key column, residual sparse
// probes, posting-list path, memtable and columnar gathers — against
// the row-at-a-time Scan reference for every filter shape over every
// unit layout. Any divergence in membership or order is a correctness
// bug in the vectorized path.
func TestCollectBatchMatchesScan(t *testing.T) {
	from := base.Add(100 * time.Minute).UnixNano()
	to := base.Add(400 * time.Minute).UnixNano()
	keeps := []func(*sysmon.Event) bool{
		nil,
		func(ev *sysmon.Event) bool { return ev.Amount%2 == 0 },
	}
	for _, ns := range batchSnapshots(t) {
		t.Run(ns.name, func(t *testing.T) {
			sn := ns.snap
			bash := sn.Dict().MatchEntities(sysmon.EntityProcess, "exe_name", like.Compile("bash"))
			filters := []*EventFilter{
				{},
				{Agents: []uint32{2}},    // single agent: folded into the dense mask
				{Agents: []uint32{1, 3}}, // agent set: residual sparse probe
				{Ops: []sysmon.Operation{sysmon.OpDelete}},               // single op: dense mask
				{Ops: []sysmon.Operation{sysmon.OpRead, sysmon.OpWrite}}, // op set: sparse probe
				{ObjType: sysmon.EntityFile},
				{MinAmount: 120},
				{MaxAmount: 60},
				{MinAmount: 50, MaxAmount: 70},
				{MinAmount: 90, MaxAmount: 80}, // empty range: must match nothing
				{From: from, To: to},
				{Agents: []uint32{2}, Ops: []sysmon.Operation{sysmon.OpWrite}, ObjType: sysmon.EntityFile},
				{Agents: []uint32{1, 4}, Ops: []sysmon.Operation{sysmon.OpSend, sysmon.OpConnect}, MinAmount: 40, From: from},
				{Subjects: bash}, // posting-list path on indexed segments
				{Subjects: bash, From: from, To: to},
				{Subjects: bash, MinAmount: 30, MaxAmount: 150},
				{Objects: NewIDSet()}, // empty set: must match nothing
			}
			// Every batch is collected before the first reference scan:
			// Scan materializes file-backed segments, which would steer
			// later collects off the columnar path. A second collect
			// pass then covers the materialized layout.
			got := make([][]uint64, len(filters)*len(keeps))
			for pass := 0; pass < 2; pass++ {
				for fi, f := range filters {
					for ki, keep := range keeps {
						what := fmt.Sprintf("pass %d filter %d keep %d", pass, fi, ki)
						ids := collectIDs(t, sn, f, keep, what)
						if pass == 0 {
							got[fi*len(keeps)+ki] = ids
						} else {
							want := scanIDs(sn, f, keep)
							compareIDs(t, what, got[fi*len(keeps)+ki], want)
							compareIDs(t, what, ids, want)
						}
					}
				}
			}
		})
	}
}

// collectIDs runs the batch collector over every unit the filter
// selects and returns the IDs it emitted, in unit order.
func collectIDs(t *testing.T, sn *Snapshot, f *EventFilter, keep func(*sysmon.Event) bool, what string) []uint64 {
	t.Helper()
	units := sn.Units(f)
	cf := f.Compile()
	var ids []uint64
	var visited int64
	for i := range units {
		batch, v, complete := units[i].CollectBatch(context.Background(), cf, keep)
		if !complete {
			t.Fatalf("%s: batch collect incomplete without cancellation", what)
		}
		visited += v
		for j := range batch {
			ids = append(ids, batch[j].ID)
		}
	}
	if visited < int64(len(ids)) {
		t.Errorf("%s: visited %d < emitted %d", what, visited, len(ids))
	}
	return ids
}

// scanIDs is collectIDs through the row-at-a-time ScanUnit.Scan
// reference.
func scanIDs(sn *Snapshot, f *EventFilter, keep func(*sysmon.Event) bool) []uint64 {
	var ids []uint64
	for _, u := range sn.Units(f) {
		u.Scan(f, func(ev *sysmon.Event) bool {
			if keep == nil || keep(ev) {
				ids = append(ids, ev.ID)
			}
			return true
		})
	}
	return ids
}

func compareIDs(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: batch path found %d events, scan found %d", what, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: event %d differs: batch %d, scan %d", what, j, got[j], want[j])
		}
	}
}

// TestCollectBatchIntoReusesBuffer verifies the scratch-reuse contract:
// the returned batch aliases the passed-in buffer when capacity
// suffices, so a sequential walk can recycle one allocation across
// every unit.
func TestCollectBatchIntoReusesBuffer(t *testing.T) {
	s := buildBatchStore(t, 2000, 0)
	f := &EventFilter{Ops: []sysmon.Operation{sysmon.OpDelete}}
	cf := f.Compile()
	units := s.Snapshot().Units(f)
	if len(units) == 0 {
		t.Fatal("no scan units")
	}
	buf := make([]sysmon.Event, 0, 4096)
	for i := range units {
		batch, _, complete := units[i].CollectBatchInto(context.Background(), cf, nil, buf[:0])
		if !complete {
			t.Fatal("unexpected incomplete collect")
		}
		if len(batch) > 0 && cap(batch) <= cap(buf) && &batch[:1][0] != &buf[:1][0] {
			t.Fatalf("unit %d: batch did not reuse the scratch buffer", i)
		}
	}
}

// TestPostingEstimateClampsToTimeSlice pins the estimator fix: a
// narrow time window over an entity with postings spread across the
// whole segment must be charged only for the postings inside the
// window, not the full posting-list length — otherwise the planner
// ranks a cheap windowed pattern as expensive as an unbounded one.
func TestPostingEstimateClampsToTimeSlice(t *testing.T) {
	s := New(DefaultOptions())
	// One agent, one subject, 400 events at one-minute spacing: the
	// subject's posting list in the sealed segment covers everything.
	recs := make([]Record, 0, 400)
	for i := 0; i < 400; i++ {
		recs = append(recs, mkRecord(1, "bash", sysmon.OpWrite, "out.log", i))
	}
	s.AppendAll(recs)
	s.Flush()

	bash := s.Dict().MatchEntities(sysmon.EntityProcess, "exe_name", like.Compile("bash"))
	if bash.Len() != 1 {
		t.Fatalf("expected one interned bash process, got %d", bash.Len())
	}
	from := base.Add(100 * time.Minute).UnixNano()
	to := base.Add(110 * time.Minute).UnixNano()
	f := &EventFilter{Subjects: bash, From: from, To: to}

	actual := 0
	s.Scan(context.Background(), f, func(*sysmon.Event) bool { actual++; return true })
	if actual != 10 {
		t.Fatalf("windowed scan matched %d events, want 10", actual)
	}
	est := s.EstimateMatches(f)
	if est < actual {
		t.Fatalf("estimate %d undercounts actual %d", est, actual)
	}
	// Clamped to the window the bound is exact; pre-fix it was 400.
	if est > 2*actual {
		t.Errorf("estimate %d not clamped to the time slice (actual %d)", est, actual)
	}
}
