package eventstore_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/experiments"
)

// The persistence benchmark quantifies the paper's storage argument at
// the durability layer: opening a dataset from its directory of
// file-per-segment snapshots performs no re-interning, re-chunking, or
// re-indexing of events. Run via `make bench-persist`, which emits
// BENCH_persist.json for the CI perf-trajectory artifact.

var persistFixture struct {
	once   sync.Once
	dir    string
	events int
	err    error
}

func persistSetup(b *testing.B) (dir string, events int) {
	f := &persistFixture
	f.once.Do(func() {
		s := experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42))
		s.Flush()
		f.events = s.Len()
		// not b.TempDir(): the fixture must outlive the benchmark
		// invocation that happened to build it
		base, err := os.MkdirTemp("", "aiql-persist-bench")
		if err != nil {
			f.err = err
			return
		}
		f.dir = filepath.Join(base, "fig4store")
		f.err = s.SaveDir(f.dir)
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.dir, f.events
}

// BenchmarkPersistSegmentLoad opens the Fig4 50k dataset from its
// durable directory of v2 columnar segment files: the manifest is
// decoded and every segment restored from its ref alone — segment files
// are opened, mmap'd, and decoded lazily on first scan. heap-bytes and
// mapped-bytes record where the opened store's resident data lives.
func BenchmarkPersistSegmentLoad(b *testing.B) {
	dir, events := persistSetup(b)
	opts := eventstore.DefaultOptions()
	opts.Dir = dir
	b.ReportAllocs()
	b.ResetTimer()
	var st eventstore.StorageStats
	for i := 0; i < b.N; i++ {
		s, err := eventstore.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != events {
			b.Fatalf("loaded %d events, want %d", s.Len(), events)
		}
		b.StopTimer()
		st = s.StorageStats()
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(st.HeapBytes), "heap-bytes")
	b.ReportMetric(float64(st.MappedBytes), "mapped-bytes")
}
