package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/catalog"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
)

// instance is one in-process copy of the server's stack: a catalog
// configured as aiqlserver configures it (result cache off, everything
// else at its defaults), optionally behind a loopback HTTP listener
// with the same mux and access log.
type instance struct {
	cat  *catalog.Catalog
	http *http.Server
	base string
	log  *os.File
}

// newInstance opens private copies of the workload's stores under dir.
// The traced run keeps three instances so that each sees every request
// once, as the server does: one for engine calls, one for service
// calls and one behind HTTP.
func newInstance(w *workload, dir string, serve bool) (*instance, error) {
	metrics := obs.NewRegistry()
	obs.RegisterRuntimeCollector(metrics)
	slowLog := obs.NewSlowLog(500, 0)
	cat := catalog.New(catalog.Config{
		Service: service.Config{CacheEntries: -1, DefaultTimeout: 30 * time.Second},
		Metrics: metrics,
		SlowLog: slowLog,
	})
	in := &instance{cat: cat}
	names := make([]string, 0)
	for n := range w.dirs() {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		d := filepath.Join(dir, name)
		if err := copyDir(w.dirs()[name], d); err != nil {
			return nil, err
		}
		if _, err := cat.AddFile(name, d); err != nil {
			return nil, err
		}
	}
	if err := cat.SetDefault(w.defaultDS); err != nil {
		return nil, err
	}
	if !serve {
		return in, nil
	}
	logf, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return nil, err
	}
	in.log = logf
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", cat.Handler())
	mux.Handle("/metrics", metrics.Handler())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.base = "http://" + l.Addr().String()
	in.http = &http.Server{Handler: obs.AccessLog(slog.New(slog.NewTextHandler(logf, nil)), mux)}
	go in.http.Serve(l)
	return in, nil
}

func (in *instance) close() {
	if in.http != nil {
		in.http.Close()
		in.log.Close()
	}
	for _, name := range in.cat.Names() {
		if d, err := in.cat.Get(name); err == nil {
			d.Service().DB().Close()
		}
	}
}

func (in *instance) svc(name string) *service.Service {
	d, err := in.cat.Get(name)
	if err != nil {
		panic(fmt.Sprintf("dataset %s not loaded: %v", name, err))
	}
	return d.Service()
}

func (in *instance) db(name string) *aiql.DB { return in.svc(name).DB() }

// layers accumulates the traced run's per-call timings and counters.
type layers struct {
	reads                   int
	parse, prep, exec, do   time.Duration
	alloc                   uint64
	bindings, rows, scanned int64
	hits, misses            int64
	poolWait                time.Duration
	httpN                   int
	httpTime, httpDo        time.Duration // untraced round trips; Service.Do on the same requests
	httpBytes, httpRows     int64
	traced, untraced        durations
	batches, batchEvents    int
	appendT, ingestT, evalT time.Duration
	evals                   int
	fresh, freshTotal       int64
	walSyncs, walBytes      int64
}

// standingStmt is an engine-level standing query: the statement and
// its own state, evaluated with Stmt.ExecDelta after each append.
type standingStmt struct {
	stmt  *aiql.Stmt
	state *aiql.StandingState
}

// tracer replays a workload's inputs in-process, timing the calls into
// each layer's public functions from the outside.
type tracer struct {
	w        *workload
	t        tally
	eng, svc *instance
	web      *instance
	http     *client
	l        layers
	watches  []standingStmt
	rng      *rand.Rand
	n        int // requests replayed, for the call-order rotation
}

// read replays one request through every layer. The three executions
// (engine, service, HTTP) run in an order that rotates from request to
// request, and parse and prepare swap places every other request, so
// whichever call touches the data first does not always pay for it.
func (tr *tracer) read(ctx context.Context, rq *request, plain, withTrace call, record bool) {
	l := &tr.l
	tr.n++
	var (
		parseT, prepT, execT, doT time.Duration
		stmt                      *aiql.Stmt
		rows                      [][]string
		st                        engine.ExecStats
		alloc                     uint64
		out                       readOutcome
		err                       error
	)
	parse := func() {
		start := time.Now()
		ast, perr := parser.Parse(rq.Query)
		if perr == nil {
			_, perr = semantic.Check(ast)
		}
		parseT = time.Since(start)
		if perr != nil && err == nil {
			err = fmt.Errorf("%s: parse: %w", rq.Label, perr)
		}
	}
	prepare := func() {
		start := time.Now()
		var perr error
		stmt, perr = tr.eng.db(rq.Dataset).Prepare(rq.Query)
		prepT = time.Since(start)
		if perr != nil && err == nil {
			err = fmt.Errorf("%s: prepare: %w", rq.Label, perr)
		}
	}
	if tr.n%2 == 0 {
		parse()
		prepare()
	} else {
		prepare()
		parse()
	}
	if err != nil {
		tr.t.add(err)
		return
	}
	traced := tr.rng.Intn(2) == 1
	steps := []func(){
		func() {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			var eerr error
			var res *aiql.Result
			if res, eerr = stmt.Exec(ctx, nil); eerr == nil {
				rows, st = res.Rows, res.Stats
			}
			execT = time.Since(start)
			runtime.ReadMemStats(&m1)
			alloc = m1.TotalAlloc - m0.TotalAlloc
			if eerr == nil && (len(rows) != rq.Rows || digestRows(rows) != rq.Digest) {
				eerr = fmt.Errorf("%s: engine returned %d rows, reference %d (or a different row set)", rq.Label, len(rows), rq.Rows)
			}
			tr.t.add(eerr)
		},
		func() {
			start := time.Now()
			_, derr := tr.svc.svc(rq.Dataset).Do(ctx, service.Request{Query: rq.Query, Client: "trace"})
			doT = time.Since(start)
			tr.t.add(derr)
		},
		func() {
			cl := plain
			if traced {
				cl = withTrace
			}
			out = tr.http.read(ctx, cl)
			tr.t.add(out.err)
		},
	}
	for k := range steps {
		steps[(tr.n+k)%len(steps)]()
	}
	if !record {
		return
	}
	l.reads++
	l.parse += parseT
	l.prep += prepT
	l.exec += execT
	l.do += doT
	l.alloc += alloc
	l.bindings += int64(st.Bindings)
	l.rows += int64(len(rows))
	l.scanned += st.ScannedEvents
	l.hits += int64(st.SegmentHits)
	l.misses += int64(st.SegmentMisses)
	l.poolWait += st.PoolWait
	if traced {
		l.traced = append(l.traced, out.total)
	} else {
		l.untraced = append(l.untraced, out.total)
		l.httpN++
		l.httpTime += out.total
		l.httpDo += doT
		l.httpBytes += int64(out.bytes)
		l.httpRows += int64(out.rows)
	}
}

// ingest replays one writer batch: Store append and every standing
// query's delta evaluation on the engine instance, the whole
// Service.Ingest on the service instance.
func (tr *tracer) ingest(ctx context.Context, b batch) {
	l := &tr.l
	engineSide := func() {
		db := tr.eng.db(ingestDS)
		d0 := db.DurableStats()
		start := time.Now()
		err := db.AppendAll(b.recs)
		l.appendT += time.Since(start)
		d1 := db.DurableStats()
		tr.t.add(err)
		l.walSyncs += int64(d1.WALSyncs - d0.WALSyncs)
		if grew := d1.WALBytes - d0.WALBytes; grew >= 0 {
			l.walBytes += grew
		} else {
			l.walBytes += d1.WALBytes // the WAL was truncated after a seal
		}
		for _, s := range tr.watches {
			start := time.Now()
			d, err := s.stmt.ExecDelta(ctx, nil, s.state)
			l.evalT += time.Since(start)
			tr.t.add(err)
			if err == nil {
				l.evals++
				l.fresh += int64(len(d.Fresh))
				l.freshTotal += int64(d.Total)
			}
		}
	}
	serviceSide := func() {
		start := time.Now()
		res, err := tr.svc.svc(ingestDS).Ingest(ctx, "trace-writer", b.recs)
		l.ingestT += time.Since(start)
		if err == nil && res.Ingested != len(b.recs) {
			err = fmt.Errorf("Service.Ingest reports %d events for a batch of %d", res.Ingested, len(b.recs))
		}
		tr.t.add(err)
	}
	if l.batches%2 == 0 {
		engineSide()
		serviceSide()
	} else {
		serviceSide()
		engineSide()
	}
	l.batches++
	l.batchEvents += len(b.recs)
}

// runTrace replays the workload in-process and returns the per-layer
// metrics.
func runTrace(ctx context.Context, o options, w *workload, report map[string]any) (*result, error) {
	runDir := filepath.Join(o.work, "runs", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	tr := &tracer{w: w, rng: rand.New(rand.NewSource(o.seed))}
	var err error
	for _, p := range []struct {
		in    **instance
		name  string
		serve bool
	}{{&tr.eng, "engine", false}, {&tr.svc, "service", false}, {&tr.web, "http", true}} {
		if *p.in, err = newInstance(w, filepath.Join(runDir, p.name), p.serve); err != nil {
			return nil, err
		}
		defer (*p.in).close()
	}
	tr.http = newClient(tr.web.base, "trace", newVerified())
	defer tr.http.close()

	// Set-up as in the end-to-end run: standing queries, then warm-up.
	for _, ws := range w.watches {
		stmt, err := tr.eng.db(ingestDS).Prepare(ws.Query)
		if err != nil {
			return nil, fmt.Errorf("watch %s: %w", ws.Label, err)
		}
		s := standingStmt{stmt: stmt, state: aiql.NewStandingState()}
		if _, err := stmt.ExecDelta(ctx, nil, s.state); err != nil {
			return nil, fmt.Errorf("watch %s baseline: %w", ws.Label, err)
		}
		tr.watches = append(tr.watches, s)
		if _, err := tr.svc.svc(ingestDS).Watch(ctx, ws.Query, nil); err != nil {
			return nil, fmt.Errorf("watch %s: %w", ws.Label, err)
		}
	}
	warm, err := makeCalls(w.warm, false)
	if err != nil {
		return nil, err
	}
	for _, cl := range warm {
		tr.read(ctx, cl.req, cl, cl, false)
	}
	plain, err := makeCalls(w.reads, false)
	if err != nil {
		return nil, err
	}
	withTrace, err := makeCalls(w.reads, true)
	if err != nil {
		return nil, err
	}

	readDS := map[string]bool{}
	for _, rq := range w.reads {
		readDS[rq.Dataset] = true
	}
	blockCache := func() (hits, misses, evictions uint64) {
		for name := range readDS {
			st := tr.eng.db(name).Store().BlockCacheStats()
			hits, misses, evictions = hits+st.Hits, misses+st.Misses, evictions+st.Evictions
		}
		return
	}
	// The same order as the end-to-end run: live interleaves one read
	// with each batch; sweep sends its batches on an even schedule
	// between its reads.
	pool0 := tr.eng.db(w.defaultDS).ScanPoolStats()
	bh0, bm0, be0 := blockCache()
	readOne := func(i int) {
		k := i % len(w.reads)
		tr.read(ctx, plain[k].req, plain[k], withTrace[k], true)
	}
	sent := 0
	if w.live {
		for ; sent < len(w.batches); sent++ {
			tr.ingest(ctx, w.batches[sent])
			readOne(sent)
		}
	} else {
		sent = w.interleave(ctx, readOne, func(b batch) { tr.ingest(ctx, b) })
	}
	pool1 := tr.eng.db(w.defaultDS).ScanPoolStats()
	bh1, bm1, be1 := blockCache()
	for ; sent < len(w.batches); sent++ {
		tr.ingest(ctx, w.batches[sent])
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	fig4, fig5pg, fig5neo, err := paperSpeedups(o)
	if err != nil {
		return nil, err
	}

	l := &tr.l
	n := float64(l.reads)
	mean := func(d time.Duration, k int) float64 { return ratio(us(d), float64(k)) }
	saturated := float64(pool1.Saturated - pool0.Saturated)
	// Service.Do hands plain query text to DB.QueryContext, which
	// prepares it before executing it, so the service's own time is
	// what Do spends beyond Prepare and Exec.
	values := map[string]float64{
		"aiql.parse_us":                    mean(l.parse, l.reads),
		"engine.plan_us":                   mean(l.prep-l.parse, l.reads),
		"engine.exec_us":                   mean(l.exec, l.reads),
		"engine.alloc_bytes_per_query":     ratio(float64(l.alloc), n),
		"engine.bindings_per_row":          ratio(float64(l.bindings), float64(l.rows)),
		"engine.scan_events_per_query":     ratio(float64(l.scanned), n),
		"engine.scan_cache_hit_ratio":      ratio(float64(l.hits), float64(l.hits+l.misses)),
		"engine.pool_wait_us":              mean(l.poolWait, l.reads),
		"engine.standing_eval_us":          mean(l.evalT, l.evals),
		"engine.standing_fresh_ratio":      ratio(float64(l.fresh), float64(l.freshTotal)),
		"workpool.saturated_ratio":         ratio(saturated, saturated+float64(pool1.Tasks-pool0.Tasks)),
		"eventstore.block_cache_hit_ratio": ratio(float64(bh1-bh0), float64(bh1-bh0+bm1-bm0)),
		"eventstore.block_cache_evictions": float64(be1 - be0),
		"eventstore.append_us":             mean(l.appendT, l.batches),
		"durable.wal_syncs_per_batch":      ratio(float64(l.walSyncs), float64(l.batches)),
		"durable.wal_bytes_per_event":      ratio(float64(l.walBytes), float64(l.batchEvents)),
		"service.self_us":                  mean(l.do-l.prep-l.exec, l.reads),
		"service.http_self_us":             mean(l.httpTime-l.httpDo, l.httpN),
		"service.bytes_per_row":            ratio(float64(l.httpBytes), float64(l.httpRows)),
		"service.ingest_self_us":           mean(l.ingestT, l.batches) - mean(l.appendT, l.batches) - mean(l.evalT, l.batches),
		"obs.trace_overhead_ratio":         ratio(l.traced.quantileMS(0.5), l.untraced.quantileMS(0.5)),
		"paper.fig4_speedup_pg":            fig4,
		"paper.fig5_speedup_pg":            fig5pg,
		"paper.fig5_speedup_neo4j":         fig5neo,
	}
	report["samples"] = map[string]int{"reads": l.reads, "http_traced": len(l.traced), "http_untraced": len(l.untraced),
		"batches": l.batches, "standing_evals": l.evals}
	report["failures"] = tr.t.errs
	return &result{Correct: tr.t.failed == 0, Attempted: tr.t.attempted, Failed: tr.t.failed,
		Metrics: fill(perLayerMetrics, values)}, nil
}

// paperSpeedups reruns the paper's Figure 4 and 5 comparisons on the
// 50k-event fig4 and fig5 datasets, one execution per query and engine
// as aiqlbench runs them: AIQL against the PostgreSQL emulation (with
// the paper's storage for Fig4, without it for Fig5) and the Neo4j
// emulation, each as total baseline time over total AIQL time.
func paperSpeedups(o options) (fig4, fig5pg, fig5neo float64, err error) {
	sc := o.scale
	t4, err := experiments.RunFig4(experiments.BuildStore(experiments.Fig4Dataset(sc.events, sc.hosts, dataSeed)), experiments.RunOptions{})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fig4: %w", err)
	}
	t5, err := experiments.RunFig5(experiments.BuildStore(experiments.Fig5Dataset(sc.events, sc.hosts, dataSeed)), experiments.RunOptions{})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fig5: %w", err)
	}
	return experiments.Speedup(t4, experiments.EnginePostgres),
		experiments.Speedup(t5, experiments.EnginePostgres),
		experiments.Speedup(t5, experiments.EngineNeo4j), nil
}
