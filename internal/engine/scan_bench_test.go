// Parallel-scan benchmarks behind `make bench-scan` (BENCH_scan.json),
// measuring the scan executor itself on the Fig4 50k-event demo-apt
// dataset — the full-query benchmarks in the repo root fold in plan,
// join, and sort costs that this PR does not touch.
//
//	BenchmarkScanColdSequential   row-at-a-time reference loop
//	BenchmarkScanColdWorkersK     batch/bitmap executor, K workers
//	BenchmarkScanWarmWorkersK     fully scan-cached executor
//	BenchmarkScanMemtableTail     executor over unsealed memtables only
//	BenchmarkScanAmountBound      planned amount-bound scan, cold file-backed store
//
// Cold WorkersK vs Sequential isolates the batch/bitmap speedup (plus
// worker scaling on multi-core hosts; Workers1 is the executor with no
// added concurrency). Warm Workers1 vs Workers4 should be at parity:
// cache hits skip whole scan tasks, so worker count stops mattering.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

var (
	scanBenchOnce  sync.Once
	scanBenchStore *eventstore.Store
	scanBenchSink  int
)

// scanBenchSetup builds (once) the sealed Fig4 50k store the scan
// benchmarks share; sealing matters because only sealed segments take
// the batch/bitmap path and fill the scan cache.
func scanBenchSetup(b *testing.B) *eventstore.Store {
	scanBenchOnce.Do(func() {
		s := eventstore.New(eventstore.DefaultOptions())
		datagen.GenerateInto(s, datagen.Config{
			Seed:      42,
			Hosts:     10,
			Events:    50000,
			Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT},
		})
		if err := s.Flush(); err != nil {
			panic(err)
		}
		scanBenchStore = s
	})
	b.ReportAllocs()
	return scanBenchStore
}

// scanBenchFilter is deliberately scan-bound: no agent filter and no
// entity set, so no posting list applies and every segment is filtered
// event by event — and file deletions are rare in the demo-apt
// scenario, so the predicate passes reject nearly all 50k events.
func scanBenchFilter() *eventstore.EventFilter {
	return &eventstore.EventFilter{
		Ops:     []sysmon.Operation{sysmon.OpDelete},
		ObjType: sysmon.EntityFile,
	}
}

// BenchmarkScanColdSequential is the pre-batching reference: the
// row-at-a-time callback loop ScanUnit.Scan runs (the engine scans
// through the batch kernel instead), one matches() call per event.
func BenchmarkScanColdSequential(b *testing.B) {
	store := scanBenchSetup(b)
	filter := scanBenchFilter()
	units := store.Snapshot().Units(filter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for k := range units {
			units[k].Scan(filter, func(ev *sysmon.Event) bool {
				rows++
				return true
			})
		}
		scanBenchSink = rows
	}
}

func benchScanExecutor(b *testing.B, cfg Config, warm bool) {
	store := scanBenchSetup(b)
	filter := scanBenchFilter()
	e := NewWithConfig(store, cfg)
	units := store.Snapshot().Units(filter)
	run := func() {
		var stats ExecStats
		rows := 0
		err := e.forEachUnitOrdered(context.Background(), units, filter, nil, &stats, 0,
			func(batch []sysmon.Event) bool {
				rows += len(batch)
				return true
			})
		if err != nil {
			b.Fatal(err)
		}
		scanBenchSink = rows
	}
	if warm {
		run() // prime the scan cache so every measured run hits it
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkScanColdWorkers1(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 1}, false)
}
func BenchmarkScanColdWorkers2(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 2}, false)
}
func BenchmarkScanColdWorkers4(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 4}, false)
}
func BenchmarkScanColdWorkers8(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 8}, false)
}

func BenchmarkScanWarmWorkers1(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 1, ScanCacheBytes: 64 << 20}, true)
}
func BenchmarkScanWarmWorkers4(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 4, ScanCacheBytes: 64 << 20}, true)
}
func BenchmarkScanWarmWorkers8(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 8, ScanCacheBytes: 64 << 20}, true)
}

// BenchmarkScanMemtableTail scans what a standing query rescans after
// every commit: the unsealed memtable tails, which no scan cache can
// hold. The Fig4 records are committed with the last 8192 left
// unsealed, and the filter is the `proc p read file f` pattern of the
// Fig4 queries without an agent bound, so every tail event is tested.
func BenchmarkScanMemtableTail(b *testing.B) {
	recs := datagen.Generate(datagen.Fig4Dataset(50000, 10, 42))
	store := eventstore.New(eventstore.DefaultOptions())
	sealed := len(recs) - 8192
	store.AppendAll(recs[:sealed])
	if err := store.Flush(); err != nil {
		b.Fatal(err)
	}
	store.AppendAll(recs[sealed:])
	filter := &eventstore.EventFilter{
		Ops:     []sysmon.Operation{sysmon.OpRead},
		ObjType: sysmon.EntityFile,
	}
	var units []eventstore.ScanUnit
	tail := 0
	for _, u := range store.Snapshot().Units(filter) {
		if !u.Sealed() {
			units = append(units, u)
			tail += u.Len()
		}
	}
	if tail != 8192 {
		b.Fatalf("memtable units hold %d events, want 8192", tail)
	}
	e := NewWithConfig(store, Config{ScanWorkers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats ExecStats
		rows := 0
		err := e.forEachUnitOrdered(context.Background(), units, filter, nil, &stats, 0,
			func(batch []sysmon.Event) bool {
				rows += len(batch)
				return true
			})
		if err != nil {
			b.Fatal(err)
		}
		scanBenchSink = rows
	}
}

// BenchmarkScanAmountBound scans what the pattern of
// `proc p read || write file f as evt with evt.amount > X` asks of a
// cold file-backed store: the Fig4 50k records saved to a store
// directory and reopened before every run, so each run decodes the
// segment columns it touches from the file. X keeps under 1% of the
// read and write events. The scan takes the planner's filter and
// residual predicates, so it measures what the plan pushes into the
// storage kernel.
func BenchmarkScanAmountBound(b *testing.B) {
	src := eventstore.New(eventstore.DefaultOptions())
	src.AppendAll(datagen.Generate(datagen.Fig4Dataset(50000, 10, 42)))
	dir := b.TempDir()
	if err := src.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	rw := src.Snapshot().Collect(&eventstore.EventFilter{
		Ops:     []sysmon.Operation{sysmon.OpRead, sysmon.OpWrite},
		ObjType: sysmon.EntityFile,
	})
	amounts := make([]uint64, len(rw))
	for i := range rw {
		amounts[i] = rw[i].Amount
	}
	slices.Sort(amounts)
	x := amounts[len(amounts)*995/1000]
	q, err := parser.Parse(fmt.Sprintf("proc p read || write file f as evt\nwith evt.amount > %d\nreturn distinct p, f", x))
	if err != nil {
		b.Fatal(err)
	}
	mq := q.(*ast.MultieventQuery)
	opts := eventstore.DefaultOptions()
	opts.Dir = dir
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := eventstore.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		e := NewWithConfig(store, Config{ScanWorkers: 1})
		snap := store.Snapshot()
		b.StartTimer()
		plan, err := e.buildPlan(snap, mq)
		if err != nil {
			b.Fatal(err)
		}
		pp := plan.patterns[0]
		var stats ExecStats
		rows := 0
		err = e.forEachUnitOrdered(context.Background(), snap.Units(&pp.filter), &pp.filter, pp.evtPreds, &stats, 0,
			func(batch []sysmon.Event) bool {
				rows += len(batch)
				return true
			})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rows == 0 || rows*100 >= len(rw) {
			b.Fatalf("amount > %d kept %d of %d read/write events, want under 1%%", x, rows, len(rw))
		}
		scanBenchSink = rows
		store.Close()
		b.StartTimer()
	}
}
