package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"github.com/aiql/aiql/internal/durable"
)

// workloadWhy records why each workload exists; the run prints it.
var workloadWhy = map[string]string{
	"sweep": "selective queries with fresh literals on a store larger than the block cache: block decode and pooled scans dominate",
	"live":  "a fixed number of ingest batches under 16 standing queries beside a reader of the paper's 45 Fig4+Fig5 queries: writes contending with reads",
}

// writerBatches is sweep's fixed writer load: batches spread over its
// reads, enough for ten samples beyond the p95.
const writerBatches = 200

// workload is one benchmark traffic mix over a set of store directories.
// Every workload has a writer: day-2 telemetry into a private copy of
// the fig4 store under the 16 standing queries of liveWatchLabels.
type workload struct {
	name      string
	shared    map[string]string // dataset → store dir opened as is
	writable  map[string]string // dataset → pristine store dir, copied for each set-up
	defaultDS string
	warm      []request // the warm-up pass: every distinct request once
	reads     []request // the timed read sequence: cycled on live, each once on sweep
	watches   []watchSpec
	batches   []batch
	live      bool // the writer runs beside the reader; otherwise between reads
	events    map[string]int
	decoded   map[string]int64 // dataset → decoded column bytes of its sealed segments
}

// ingestDS is the dataset every workload's writer ingests into: a
// private copy of the fig4 store. Live reads the store it writes; sweep
// reads a store of its own.
const ingestDS = "live"

// buildWorkload makes the inputs of one workload; the seed draws the
// order of its reads.
func buildWorkload(o options) (*workload, error) {
	sc := o.scale
	w := &workload{name: o.workload, events: map[string]int{},
		shared: map[string]string{}, writable: map[string]string{}}
	rng := rand.New(rand.NewSource(o.seed))
	in, err := loadFigInputs(o.inputs, sc)
	if err != nil {
		return nil, err
	}
	w.writable[ingestDS] = in.Fig4Dir
	w.events[ingestDS] = in.Events
	var batches int
	switch o.workload {
	case "live":
		// The reader sends the paper's investigation queries, those of
		// Fig4 to the store the writer grows. The investigation order
		// is kept; the seed picks where in it the timed reads start.
		w.live = true
		batches = sc.liveRate * o.seconds
		w.shared["fig5"] = in.Fig5Dir
		w.events["fig5"] = in.Events
		w.defaultDS = ingestDS
		reads := retarget(in.Investigate, "fig4", ingestDS)
		w.warm, w.reads = reads, rotate(reads, rng)
	case "sweep":
		batches = writerBatches
		sw, err := loadSweepInputs(o.inputs, sc)
		if err != nil {
			return nil, err
		}
		w.defaultDS = "sweep"
		w.shared["sweep"] = sw.Dir
		w.events["sweep"] = sw.Events
		// A fixed number of reads, each a distinct pool query, so that a
		// faster build neither runs more of them nor repeats one from the
		// scan cache: every query leaves scan-cache entries behind, so
		// peak_rss_mb follows the number of distinct queries.
		n := min(sc.sweepWarm+sc.sweepRate*o.seconds, len(sw.Pool))
		perm := rng.Perm(len(sw.Pool))[:n]
		for i, p := range perm {
			if i < sc.sweepWarm {
				w.warm = append(w.warm, sw.Pool[p])
			} else {
				w.reads = append(w.reads, sw.Pool[p])
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want sweep or live)", o.workload)
	}
	li, err := loadWriterInputs(o.inputs, sc, batches)
	if err != nil {
		return nil, err
	}
	w.watches = li.Watches
	recs, err := day2Records(sc, batches*sc.batch)
	if err != nil {
		return nil, err
	}
	if w.batches, err = makeBatches(recs, sc.batch); err != nil {
		return nil, err
	}
	w.decoded = map[string]int64{}
	for name, dir := range w.dirs() {
		n, err := decodedBytes(dir)
		if err != nil {
			return nil, err
		}
		w.decoded[name] = n
	}
	return w, nil
}

// retarget returns a copy of reqs with every request on dataset from
// sent to dataset to instead.
func retarget(reqs []request, from, to string) []request {
	out := append([]request(nil), reqs...)
	for i := range out {
		if out[i].Dataset == from {
			out[i].Dataset = to
		}
	}
	return out
}

// interleave runs sweep's timed phase: it sends each read once and,
// before each, the writer batches due by then on an even schedule over
// the reads. It returns how many batches it sent; the caller sends the
// rest.
func (w *workload) interleave(ctx context.Context, read func(i int), write func(b batch)) int {
	sent := 0
	for i := 0; i < len(w.reads) && ctx.Err() == nil; i++ {
		for ; sent < min(len(w.batches), len(w.batches)*i/len(w.reads)+1); sent++ {
			write(w.batches[sent])
		}
		read(i)
	}
	return sent
}

// rotate returns reqs cycled to start at a random position.
func rotate(reqs []request, rng *rand.Rand) []request {
	k := rng.Intn(len(reqs))
	return append(append([]request(nil), reqs[k:]...), reqs[:k]...)
}

// dirs returns every input store directory by dataset.
func (w *workload) dirs() map[string]string {
	out := map[string]string{}
	for k, v := range w.shared {
		out[k] = v
	}
	for k, v := range w.writable {
		out[k] = v
	}
	return out
}

// decodedBytes sums the decompressed size of every column block of the
// sealed segment files in a store directory: the bytes the block cache
// would hold to keep the whole store decoded.
func decodedBytes(dir string) (int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range segs {
		rd, err := durable.OpenSegmentReader(p)
		if err != nil {
			return 0, err
		}
		for col := 0; col < durable.NumCols; col++ {
			for blk := 0; blk < rd.NumBlocks(); blk++ {
				b, _, err := rd.Block(col, blk, nil)
				if err != nil {
					return 0, fmt.Errorf("%s column %d block %d: %w", p, col, blk, err)
				}
				n += int64(len(b))
			}
		}
	}
	return n, nil
}
