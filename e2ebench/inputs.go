package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/sysmon"
	"github.com/aiql/aiql/internal/translate"
)

// scale sets every input size. "full" is the benchmark; "tiny" keeps the
// same shapes at a size the self-test can afford.
type scale struct {
	name        string
	events      int // background events of each fig4/fig5 dataset
	hosts       int
	sweepEvents int // background events of the sweep store
	sweepHosts  int
	sweepPool   int // distinct sweep queries with reference answers
	sweepWarm   int // sweep queries spent on the warm-up pass
	sweepRate   int // timed sweep reads per second of -seconds
	batch       int // records per ingest batch
	liveRate    int // live batches per second of -seconds
	setups      int // server set-ups per run (setup_s is their median)
}

var scales = map[string]scale{
	"full": {name: "full", events: 50000, hosts: 10, sweepEvents: 1000000, sweepHosts: 20,
		sweepPool: 240, sweepWarm: 8, sweepRate: 5, batch: 100, liveRate: 60, setups: 7},
	"tiny": {name: "tiny", events: 3000, hosts: 6, sweepEvents: 20000, sweepHosts: 6,
		sweepPool: 16, sweepWarm: 2, sweepRate: 4, batch: 20, liveRate: 5, setups: 1},
}

// The data seeds fix every store and the writer's telemetry, so they
// and their reference answers are made once per checkout (the sweep
// answers take minutes), and so that a run's figures vary with the
// program rather than with the data: with per-seed data the Fig4
// Query-1 shape alone moved 30% between seeds. dataSeed is the demo
// seed, so row counts match the repository's documented ones. A run's
// seed draws the order of its reads and, on sweep, which pool queries
// run.
const (
	dataSeed  = 42
	sweepSeed = 20190610
)

// request is one read the benchmark sends, with its reference answer.
type request struct {
	Label   string `json:"label"`
	Dataset string `json:"dataset"`
	Query   string `json:"query"`
	Rows    int    `json:"rows"`
	Digest  string `json:"digest"`
}

// watchSpec is one of the writer's standing queries with the reference
// row counts before and after the writer's batches.
type watchSpec struct {
	Label     string `json:"label"`
	Query     string `json:"query"`
	BaseRows  int    `json:"base_rows"`
	EndRows   int    `json:"end_rows"`
	EndDigest string `json:"end_digest"`
}

// figInputs are the fig4 and fig5 stores with the reference answers of
// the investigate reads.
type figInputs struct {
	Fig4Dir     string    `json:"-"`
	Fig5Dir     string    `json:"-"`
	Events      int       `json:"events"` // events per dataset
	Investigate []request `json:"investigate"`
}

// sweepInputs are the seed-independent sweep store and query pool.
type sweepInputs struct {
	Dir    string    `json:"-"`
	Events int       `json:"events"`
	Pool   []request `json:"pool"`
}

// writerInputs are the writer's standing queries with reference
// answers for a given number of writer batches.
type writerInputs struct {
	Batches int         `json:"batches"`
	Watches []watchSpec `json:"watches"`
}

// digestRows is the order-independent digest of a row set: rows are
// rendered with a unit separator between cells, sorted, and hashed.
func digestRows(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// oracle answers queries with the independent reference: the query is
// translated to SQL and run on the relational engine, as the paper's
// cross-engine verification does.
type oracle struct{ rdb *relational.DB }

func newOracle(store *eventstore.Store) (*oracle, error) {
	rdb := relational.Open(true)
	if err := translate.LoadRelational(rdb, store); err != nil {
		return nil, fmt.Errorf("load reference engine: %w", err)
	}
	return &oracle{rdb: rdb}, nil
}

func (o *oracle) answer(q string) (rows int, digest string, err error) {
	ast, err := parser.Parse(q)
	if err != nil {
		return 0, "", err
	}
	sqlText, err := translate.ToSQL(ast)
	if err != nil {
		return 0, "", fmt.Errorf("translate: %w", err)
	}
	res, err := o.rdb.Query(sqlText)
	if err != nil {
		return 0, "", fmt.Errorf("reference query: %w", err)
	}
	out := res.RenderStrings()
	return len(out), digestRows(out), nil
}

func (o *oracle) fill(reqs []request) error {
	for i := range reqs {
		n, d, err := o.answer(reqs[i].Query)
		if err != nil {
			return fmt.Errorf("%s: %w", reqs[i].Label, err)
		}
		reqs[i].Rows, reqs[i].Digest = n, d
	}
	return nil
}

// buildStore ingests records into a sealed in-memory store.
func buildStore(recs []eventstore.Record) *eventstore.Store {
	s := eventstore.New(eventstore.DefaultOptions())
	s.AppendAll(recs)
	s.Flush()
	return s
}

// inputsSource is this file: the code that makes every cached input.
//
//go:embed inputs.go
var inputsSource []byte

// inputsDir returns the directory under work that caches the inputs
// of a scale, named by a hash of everything they are made from: the
// scale, the data seeds, this file, and the repository's Go sources
// under root (the data generator, the store writer and the reference
// engine live there). Code that makes other inputs therefore never
// reuses inputs cached by a build of other code in the same tree.
func inputsDir(root, work string, sc scale) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%+v seeds %d %d\n", sc, dataSeed, sweepSeed)
	h.Write(inputsSource)
	var files []string
	for _, pattern := range []string{"go.mod", "go.sum", "*.go"} {
		m, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			return "", err
		}
		files = append(files, m...)
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash the sources the inputs are made with: %w", err)
	}
	for _, p := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return filepath.Join(work, "inputs", fmt.Sprintf("%s-%x", sc.name, h.Sum(nil)[:8])), nil
}

// cached makes sure the directory dir exists, calling build to fill it
// under a temporary name first when it does not, so an interrupted
// build never leaves a half-made input behind.
func cached(dir string, build func(tmp string) error) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	tmp := fmt.Sprintf("%s.tmp%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := build(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return os.Rename(tmp, dir)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// liveWatchLabels name the Fig4/Fig5 multievent queries registered as
// the writer's standing queries, with their day window removed.
var liveWatchLabels = []string{
	"a1-3", "a1-4", "a2-3", "a3-2", "a3-3", "a4-3", "a4-4", "a5-4",
	"c2-5", "c2-6", "c2-8", "c3-2", "c4-6", "c4-7", "c5-5", "c5-6",
}

func paperQueries() map[string]experiments.Query {
	out := map[string]experiments.Query{}
	for _, q := range append(experiments.Fig4Queries(), experiments.Fig5Queries()...) {
		out[q.Label] = q
	}
	return out
}

// standing strips a paper query's day window, turning an investigation
// query into a standing one.
func standing(q experiments.Query) string {
	return strings.TrimSpace(strings.Replace(q.Text, `(at "05/10/2018")`, "", 1))
}

// loadFigInputs returns the fig4/fig5 inputs, generating them and their
// reference answers on first use.
func loadFigInputs(inputs string, sc scale) (*figInputs, error) {
	dir := filepath.Join(inputs, "fig")
	err := cached(dir, func(tmp string) error {
		in := &figInputs{Events: sc.events}
		for _, q := range experiments.Fig4Queries() {
			in.Investigate = append(in.Investigate, request{Label: q.Label, Dataset: "fig4", Query: q.Text})
		}
		for _, q := range experiments.Fig5Queries() {
			in.Investigate = append(in.Investigate, request{Label: q.Label, Dataset: "fig5", Query: q.Text})
		}
		for _, ds := range []struct {
			name string
			cfg  datagen.Config
			reqs [][]request
		}{
			{"fig4", experiments.Fig4Dataset(sc.events, sc.hosts, dataSeed), [][]request{in.Investigate[:19]}},
			{"fig5", experiments.Fig5Dataset(sc.events, sc.hosts, dataSeed), [][]request{in.Investigate[19:]}},
		} {
			store := buildStore(datagen.Generate(ds.cfg))
			if err := store.SaveDir(filepath.Join(tmp, ds.name)); err != nil {
				return err
			}
			o, err := newOracle(store)
			if err != nil {
				return err
			}
			for _, reqs := range ds.reqs {
				if err := o.fill(reqs); err != nil {
					return err
				}
			}
		}
		return writeJSON(filepath.Join(tmp, "inputs.json"), in)
	})
	if err != nil {
		return nil, fmt.Errorf("fig4/fig5 inputs: %w", err)
	}
	in := &figInputs{}
	if err := readJSON(filepath.Join(dir, "inputs.json"), in); err != nil {
		return nil, err
	}
	in.Fig4Dir, in.Fig5Dir = filepath.Join(dir, "fig4"), filepath.Join(dir, "fig5")
	return in, nil
}

// day2Records is next-day telemetry for the writer: another seed, the
// timeline shifted by a day, and the ATC attack injected so the
// standing queries fire. It returns exactly n records.
func day2Records(sc scale, n int) ([]eventstore.Record, error) {
	recs := datagen.Generate(datagen.Config{
		Seed:      dataSeed + 1,
		Hosts:     sc.hosts,
		Events:    n + n/8,
		Start:     datagen.DefaultStart.Add(24 * time.Hour),
		Scenarios: []datagen.Scenario{datagen.ScenarioATCCase},
	})
	if len(recs) < n {
		return nil, fmt.Errorf("day-2 telemetry: generated %d records, need %d", len(recs), n)
	}
	return recs[:n], nil
}

// wireRecord renders a record as the ingest API's NDJSON form.
func wireRecord(r eventstore.Record) service.IngestRecord {
	proc := func(p sysmon.Process) service.WireProcess {
		return service.WireProcess{PID: p.PID, ExeName: p.ExeName, Path: p.Path, User: p.User, CmdLine: p.CmdLine}
	}
	ir := service.IngestRecord{
		AgentID:    r.AgentID,
		Op:         r.Op.String(),
		Subject:    proc(r.Subject),
		ObjectType: r.ObjType.String(),
		StartTS:    r.StartTS,
		EndTS:      r.EndTS,
		Amount:     r.Amount,
	}
	switch r.ObjType {
	case sysmon.EntityProcess:
		p := proc(r.ObjProc)
		ir.Process = &p
	case sysmon.EntityFile:
		ir.File = &service.WireFile{Name: r.ObjFile.Path, Owner: r.ObjFile.Owner}
	case sysmon.EntityNetconn:
		c := r.ObjConn
		ir.Netconn = &service.WireNetconn{SrcIP: c.SrcIP, SrcPort: c.SrcPort, DstIP: c.DstIP, DstPort: c.DstPort, Protocol: c.Protocol}
	}
	return ir
}

// batch is one ingest request: the records and their NDJSON body.
type batch struct {
	recs []eventstore.Record
	body []byte
}

func makeBatches(recs []eventstore.Record, size int) ([]batch, error) {
	var out []batch
	for len(recs) > 0 {
		n := min(size, len(recs))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range recs[:n] {
			if err := enc.Encode(wireRecord(r)); err != nil {
				return nil, err
			}
		}
		out = append(out, batch{recs: recs[:n], body: buf.Bytes()})
		recs = recs[n:]
	}
	return out, nil
}

// loadWriterInputs returns the writer's standing queries with
// reference answers on the fig4 data before and after `batches` writer
// batches of day-2 telemetry.
func loadWriterInputs(inputs string, sc scale, batches int) (*writerInputs, error) {
	dir := filepath.Join(inputs, fmt.Sprintf("writer%d", batches))
	err := cached(dir, func(tmp string) error {
		in := &writerInputs{Batches: batches}
		qs := paperQueries()
		for _, l := range liveWatchLabels {
			in.Watches = append(in.Watches, watchSpec{Label: l, Query: standing(qs[l])})
		}
		base := datagen.Generate(experiments.Fig4Dataset(sc.events, sc.hosts, dataSeed))
		day2, err := day2Records(sc, batches*sc.batch)
		if err != nil {
			return err
		}
		for _, end := range []bool{false, true} {
			recs := base
			if end {
				recs = append(append([]eventstore.Record(nil), base...), day2...)
			}
			o, err := newOracle(buildStore(recs))
			if err != nil {
				return err
			}
			for i := range in.Watches {
				n, d, err := o.answer(in.Watches[i].Query)
				if err != nil {
					return fmt.Errorf("watch %s: %w", in.Watches[i].Label, err)
				}
				if end {
					in.Watches[i].EndRows, in.Watches[i].EndDigest = n, d
				} else {
					in.Watches[i].BaseRows = n
				}
			}
		}
		return writeJSON(filepath.Join(tmp, "live.json"), in)
	})
	if err != nil {
		return nil, fmt.Errorf("writer inputs: %w", err)
	}
	in := &writerInputs{}
	return in, readJSON(filepath.Join(dir, "live.json"), in)
}

// loadSweepInputs returns the sweep store and its query pool, making
// them once per checkout.
func loadSweepInputs(inputs string, sc scale) (*sweepInputs, error) {
	dir := filepath.Join(inputs, "sweep")
	err := cached(dir, func(tmp string) error {
		// The reference engine holds the whole store as rows; collect
		// garbage early to keep the peak heap near the live data.
		defer debug.SetGCPercent(debug.SetGCPercent(40))
		recs := datagen.Generate(datagen.Config{
			Seed:      sweepSeed,
			Hosts:     sc.sweepHosts,
			Events:    sc.sweepEvents,
			Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT, datagen.ScenarioATCCase},
		})
		in := &sweepInputs{Events: len(recs), Pool: sweepPool(recs, sc.sweepPool)}
		store := buildStore(recs)
		recs = nil
		if err := store.SaveDir(filepath.Join(tmp, "store")); err != nil {
			return err
		}
		o, err := newOracle(store)
		if err != nil {
			return err
		}
		if err := o.fill(in.Pool); err != nil {
			return err
		}
		return writeJSON(filepath.Join(tmp, "pool.json"), in)
	})
	if err != nil {
		return nil, fmt.Errorf("sweep inputs: %w", err)
	}
	in := &sweepInputs{}
	if err := readJSON(filepath.Join(dir, "pool.json"), in); err != nil {
		return nil, err
	}
	in.Dir = filepath.Join(dir, "store")
	return in, nil
}

// sweepPool draws n distinct selective queries of one shape: read or
// write events on files above an amount threshold taken from the data,
// so that each keeps at most 1500 of the ~600k matching events. Every
// query examines the same events, so their costs are alike, while the
// distinct thresholds give distinct scan filters that the segment scan
// cache cannot serve from an earlier query.
func sweepPool(recs []eventstore.Record, n int) []request {
	var amts []uint64
	for _, r := range recs {
		if r.ObjType == sysmon.EntityFile && (r.Op == sysmon.OpRead || r.Op == sysmon.OpWrite) && r.Amount > 0 {
			amts = append(amts, r.Amount)
		}
	}
	sort.Slice(amts, func(i, j int) bool { return amts[i] > amts[j] })
	rng := rand.New(rand.NewSource(sweepSeed))
	seen := map[uint64]bool{}
	var out []request
	for tries := 0; len(out) < n && tries < 100*n && len(amts) > 1; tries++ {
		x := amts[1+rng.Intn(min(len(amts)-1, 1500))]
		if seen[x] {
			continue
		}
		seen[x] = true
		out = append(out, request{
			Label:   fmt.Sprintf("amount-%d", len(out)),
			Dataset: "sweep",
			Query:   fmt.Sprintf("proc p read || write file f as evt\nwith evt.amount > %d\nreturn distinct p, f", x),
		})
	}
	return out
}
