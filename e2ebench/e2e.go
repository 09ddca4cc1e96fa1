package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aiql/aiql/internal/service"
)

// tally counts attempted and failed operations; a wrong answer is a
// failure. The first few failure reasons are kept for the report.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// check counts one consistency check, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.add(nil)
	} else {
		t.add(fmt.Errorf(format, args...))
	}
}

// serverSetup lays out one set-up's store directories under dir and
// returns the aiqlserver arguments serving them, plus every directory
// the server writes or reads by dataset.
func (w *workload) serverSetup(dir string) ([]string, map[string]string, error) {
	served := map[string]string{}
	var pairs []string
	names := make([]string, 0, len(w.shared)+len(w.writable))
	for n := range w.dirs() {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		src := w.shared[name]
		if pristine, ok := w.writable[name]; ok {
			src = filepath.Join(dir, name)
			if err := copyDir(pristine, src); err != nil {
				return nil, nil, err
			}
		}
		served[name] = src
		pairs = append(pairs, name+"="+src)
	}
	args := []string{"-cache", "-1", "-datasets", strings.Join(pairs, ","), "-default", w.defaultDS}
	return args, served, nil
}

// e2eRun is the state of one end-to-end run.
type e2eRun struct {
	w      *workload
	o      options
	t      tally
	srv    *server
	args   []string
	served map[string]string
	base   map[string]int // watch label → registration matches
	notes  []string
	ok     *verified
}

// setUp starts a server on fresh store copies, registers the standing
// queries and runs the warm-up pass. It returns the time the server
// took: from exec to healthy, registering, and answering the warm-up
// reads, without the client's own checking of those answers.
func (r *e2eRun) setUp(ctx context.Context, dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	args, served, err := r.w.serverSetup(dir)
	if err != nil {
		return 0, err
	}
	r.args, r.served = args, served
	calls, err := makeCalls(r.w.warm, false)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := startServer(ctx, r.o.server, args, filepath.Join(dir, "server.log"))
	if err != nil {
		return 0, err
	}
	r.srv = srv
	c := newClient(srv.base, "setup", r.ok)
	defer c.close()
	r.base = map[string]int{}
	for _, ws := range r.w.watches {
		info, err := c.watch(ctx, ingestDS, ws.Query)
		if err != nil {
			return 0, fmt.Errorf("register watch %s: %w", ws.Label, err)
		}
		r.base[ws.Label] = info.Matches
	}
	took := time.Since(start)
	for _, cl := range calls {
		out := c.read(ctx, cl)
		r.t.add(out.err)
		took += out.total
	}
	return took, nil
}

// counters picks the server's own counters that the traced run's
// per-layer figures can be checked against.
func counters(st service.DatasetStats) map[string]int64 {
	return map[string]int64{
		"scanned_events":      int64(st.Service.ScannedEvents),
		"executions":          int64(st.Service.Executions),
		"rejected":            int64(st.Service.Rejected + st.Service.Throttled + st.Ingest.Rejected),
		"errors":              int64(st.Service.Errors + st.Service.Timeouts),
		"scan_cache_hits":     int64(st.ScanCache.Hits),
		"scan_cache_misses":   int64(st.ScanCache.Misses),
		"block_cache_hits":    int64(st.Storage.BlockCache.Hits),
		"block_cache_misses":  int64(st.Storage.BlockCache.Misses),
		"block_cache_evicted": int64(st.Storage.BlockCache.Evictions),
		"wal_syncs":           int64(st.Durable.WALSyncs),
		"watch_evals":         int64(st.Watch.Evals),
		"events":              int64(st.Store.Events),
	}
}

func (r *e2eRun) snapshot() (map[string]map[string]int64, error) {
	out := map[string]map[string]int64{}
	for name := range r.served {
		st, err := r.srv.stats(name)
		if err != nil {
			return nil, err
		}
		out[name] = counters(st)
	}
	return out, nil
}

// runE2E runs a workload against a real aiqlserver process with
// tracing off and returns the end-to-end metrics.
func runE2E(ctx context.Context, o options, w *workload, report map[string]any) (*result, error) {
	runDir := filepath.Join(o.work, "runs", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	r := &e2eRun{w: w, o: o, ok: newVerified()}
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
	}()

	var setups durations
	setUp := func(i int) error {
		if r.srv != nil {
			r.srv.kill()
			r.srv = nil
		}
		s, err := r.setUp(ctx, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, s)
		return nil
	}
	// Half the set-ups run before the timed phase, the last of them
	// serving it, and the rest after it, so that their median samples
	// the host's load over the whole run rather than over its first
	// seconds.
	first := (o.scale.setups + 1) / 2
	for i := 0; i < first; i++ {
		if err := setUp(i); err != nil {
			return nil, err
		}
	}

	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	reads, acks, err := r.timed(ctx)
	if err != nil {
		return nil, err
	}
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	// The server's counters over the timed phase, by dataset.
	delta := map[string]map[string]int64{}
	var events int64
	for name, a := range after {
		delta[name] = map[string]int64{}
		for k, v := range a {
			delta[name][k] = v - before[name][k]
		}
		events += a["events"]
	}
	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var disk int64
	for _, dir := range r.served {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	if err := r.reconcile(ctx, acks, before[ingestDS]["events"], after[ingestDS]["events"]); err != nil {
		return nil, err
	}
	if w.live {
		if err := r.durability(ctx, after[ingestDS]["events"]); err != nil {
			return nil, err
		}
	}
	for i := first; i < o.scale.setups; i++ {
		if err := setUp(i); err != nil {
			return nil, err
		}
	}

	var totals, firsts, ackTimes durations
	byLabel := map[string]durations{}
	for _, rd := range reads {
		totals = append(totals, rd.total)
		firsts = append(firsts, rd.first)
		byLabel[rd.label] = append(byLabel[rd.label], rd.total)
	}
	labelP50 := map[string]float64{}
	for l, d := range byLabel {
		labelP50[l] = d.quantileMS(0.5)
	}
	report["read_p50_ms_by_label"] = labelP50
	var acked int
	for _, a := range acks {
		ackTimes = append(ackTimes, a.el)
		acked += a.res.Ingested
	}
	report["server_counters"] = delta
	report["samples"] = map[string]int{"reads": len(reads), "ingest_acks": len(acks), "setups": len(setups)}
	var each []float64
	for _, d := range setups {
		each = append(each, d.Seconds())
	}
	report["setups_s"] = each
	report["notes"] = r.notes
	report["failures"] = r.t.errs
	values := map[string]float64{
		"setup_s":              setups.quantileMS(0.5) / 1000,
		"query_p50_ms":         totals.quantileMS(0.50),
		"query_p95_ms":         totals.quantileMS(0.95),
		"queries_per_s":        ratio(float64(len(reads)), totals.sum().Seconds()),
		"first_row_p50_ms":     firsts.quantileMS(0.50),
		"ingest_ack_p50_ms":    ackTimes.quantileMS(0.50),
		"ingest_ack_p95_ms":    ackTimes.quantileMS(0.95),
		"ingest_events_per_s":  ratio(float64(acked), ackTimes.sum().Seconds()),
		"peak_rss_mb":          rss,
		"disk_bytes_per_event": ratio(float64(disk), float64(events)),
	}
	return &result{Correct: r.t.failed == 0, Attempted: r.t.attempted, Failed: r.t.failed,
		Metrics: fill(endToEndMetrics, values)}, nil
}

// ack is one acknowledged ingest batch.
type ack struct {
	el  time.Duration
	res service.IngestResult
}

// timed runs the measured phase. Live runs its reader beside its
// writer and stops the reader once the writer's fixed batch count is
// acknowledged. Sweep runs one closed loop that sends each read alone
// and, between reads, the writer batches that are due on an even
// schedule over the reads, so acks and reads sample the same stretch of
// time without contending.
func (r *e2eRun) timed(ctx context.Context) ([]readOutcome, []ack, error) {
	calls, err := makeCalls(r.w.reads, false)
	if err != nil {
		return nil, nil, err
	}
	var (
		acks   []ack
		reads  []readOutcome
		reader = newClient(r.srv.base, "reader", r.ok)
		writer = newClient(r.srv.base, "writer", r.ok)
	)
	defer reader.close()
	defer writer.close()
	readOne := func(i int) {
		out := reader.read(ctx, calls[i%len(calls)])
		r.t.add(out.err)
		reads = append(reads, out)
	}
	writeOne := func(b batch) {
		el, res, err := writer.ingest(ctx, ingestDS, b.body)
		if err == nil && res.Ingested != len(b.recs) {
			err = fmt.Errorf("ingest ack reports %d events for a batch of %d", res.Ingested, len(b.recs))
		}
		r.t.add(err)
		if err == nil {
			acks = append(acks, ack{el: el, res: res})
		}
	}
	sent := 0
	if r.w.live {
		var writing atomic.Bool
		writing.Store(true)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; writing.Load() && ctx.Err() == nil; i++ {
				readOne(i)
			}
		}()
		for ; sent < len(r.w.batches); sent++ {
			writeOne(r.w.batches[sent])
		}
		writing.Store(false)
		wg.Wait()
	} else {
		sent = r.w.interleave(ctx, readOne, writeOne)
	}
	for ; sent < len(r.w.batches); sent++ {
		writeOne(r.w.batches[sent])
	}
	return reads, acks, ctx.Err()
}

// reconcile checks the writer's books once it is done: the store grew
// by exactly the acked events, every standing query's match count moved
// from its reference baseline to its reference end state, and the acks'
// new_matches add up to that growth.
func (r *e2eRun) reconcile(ctx context.Context, acks []ack, eventsBefore, eventsAfter int64) error {
	var acked, fresh int
	for _, a := range acks {
		acked += a.res.Ingested
		fresh += a.res.NewMatches
	}
	r.t.check(eventsAfter == eventsBefore+int64(acked), "writer: store holds %d events, want %d + %d acked", eventsAfter, eventsBefore, acked)

	c := newClient(r.srv.base, "check", r.ok)
	infos, err := c.watches(ctx, ingestDS)
	c.close()
	if err != nil {
		return err
	}
	end := map[string]int{}
	for _, info := range infos {
		end[info.Query] = info.Matches
	}
	grew := 0
	for _, ws := range r.w.watches {
		r.t.check(r.base[ws.Label] == ws.BaseRows, "writer: watch %s baseline %d matches, reference %d", ws.Label, r.base[ws.Label], ws.BaseRows)
		r.t.check(end[ws.Query] == ws.EndRows, "writer: watch %s ends with %d matches, reference %d", ws.Label, end[ws.Query], ws.EndRows)
		grew += end[ws.Query] - r.base[ws.Label]
	}
	r.t.check(fresh == grew, "writer: acks report %d new matches, watches grew by %d", fresh, grew)
	return nil
}

// durability kills the server without warning, restarts it on the same
// directories and checks that every acked event and standing-query
// answer reads back.
func (r *e2eRun) durability(ctx context.Context, eventsAfter int64) error {
	r.srv.kill()
	r.srv = nil
	srv, err := startServer(ctx, r.o.server, r.args, filepath.Join(filepath.Dir(r.served[ingestDS]), "restart.log"))
	if err != nil {
		r.t.add(fmt.Errorf("live: restart after SIGKILL: %w", err))
		return nil
	}
	r.srv = srv
	st, err := srv.stats(ingestDS)
	if err != nil {
		return err
	}
	r.t.check(int64(st.Store.Events) == eventsAfter, "live: after SIGKILL and restart the store holds %d events, want %d", st.Store.Events, eventsAfter)
	var reqs []request
	for _, ws := range r.w.watches {
		reqs = append(reqs, request{Label: "recovered " + ws.Label, Dataset: ingestDS, Query: ws.Query, Rows: ws.EndRows, Digest: ws.EndDigest})
	}
	calls, err := makeCalls(reqs, false)
	if err != nil {
		return err
	}
	c := newClient(srv.base, "check", r.ok)
	defer c.close()
	for _, cl := range calls {
		r.t.add(c.read(ctx, cl).err)
	}
	r.notes = append(r.notes, "durability check: SIGKILL then restart with the OS page cache intact, so it shows acked events survive a process crash, not that they were fsynced")
	return nil
}
