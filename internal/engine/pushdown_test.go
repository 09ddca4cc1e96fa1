package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/sysmon"
	"github.com/aiql/aiql/internal/translate"
)

// pushBoundary is an hour boundary, and so a chunk boundary: the events
// just before it and at it fall into different scan units. It is a
// multiple of 512, so as a float64 it sits on an even mantissa and the
// integers within ±128 of it all round to it.
var pushBoundary = time.Date(2018, 5, 10, 10, 0, 0, 0, time.UTC).UnixNano()

const two53 = 1 << 53

// pushdownRecords spreads reads and writes over two agents and two
// hourly chunks, with amounts on and around every threshold the bound
// table uses, including integers above 2^53 that share one float64,
// and start times on and around pushBoundary.
func pushdownRecords() []eventstore.Record {
	amounts := []uint64{0, 1, 2, 3, 99, 100, 101, 102, 199, 200, 201, 999, 1000, 1001,
		two53 - 1, two53, two53 + 1, two53 + 2, two53 + 3}
	offsets := []int64{-3600e9 + 5, -300, -256, -129, -128, -127, -1, 0, 1, 127, 128, 129, 256, 300, 1800e9}
	exes := []string{"bash", "curl", "python"}
	var recs []eventstore.Record
	for i := 0; i < len(amounts)*len(offsets); i++ {
		op := sysmon.OpRead
		if i%3 == 0 {
			op = sysmon.OpWrite
		}
		recs = append(recs, eventstore.Record{
			AgentID: uint32(1 + i%2),
			Subject: sysmon.Process{PID: 10, ExeName: exes[i%len(exes)], Path: "/usr/bin/" + exes[i%len(exes)], User: "alice"},
			Op:      op,
			ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: fmt.Sprintf("/data/f%d.txt", i%7)},
			StartTS: pushBoundary + offsets[i%len(offsets)],
			Amount:  amounts[i%len(amounts)],
		})
	}
	return recs
}

type pushLayout struct {
	name  string
	store *eventstore.Store
}

// pushdownLayouts loads the same records into every unit layout a scan
// reads: an unsealed memtable, heap-sealed segments, compacted
// segments, and the file-backed segments of a saved and reopened
// store directory.
func pushdownLayouts(t *testing.T) []pushLayout {
	t.Helper()
	recs := pushdownRecords()

	mem := eventstore.New(eventstore.DefaultOptions())
	mem.AppendAll(recs)
	if mem.NumSegments() != 0 {
		t.Fatal("memtable layout sealed a segment")
	}

	heap := eventstore.New(eventstore.DefaultOptions())
	heap.AppendAll(recs)
	heap.Flush()

	comp := eventstore.New(eventstore.DefaultOptions())
	third := len(recs) / 3
	for _, part := range [][]eventstore.Record{recs[:third], recs[third : 2*third], recs[2*third:]} {
		comp.AppendAll(part)
		comp.Flush()
	}
	if res := comp.Compact(); res.Passes == 0 {
		t.Fatal("compaction found no work")
	}

	dir := t.TempDir()
	saved := eventstore.New(eventstore.DefaultOptions())
	saved.AppendAll(recs)
	if err := saved.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	opts := eventstore.DefaultOptions()
	opts.Dir = dir
	file, err := eventstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })

	return []pushLayout{{"memtable", mem}, {"heap segments", heap}, {"compacted", comp}, {"file-backed", file}}
}

// pushBound is the part of a planned storage filter the bound pushdown
// sets.
type pushBound struct {
	MinAmount, MaxAmount uint64
	From, To             int64
}

func boundOf(f eventstore.EventFilter) pushBound {
	return pushBound{MinAmount: f.MinAmount, MaxAmount: f.MaxAmount, From: f.From, To: f.To}
}

// TestBoundPushdownMatchesReference: every amount and start-time
// comparison the planner pushes into the storage filter returns rows
// identical to the translate→relational reference over every unit
// layout, and the planned filter carries exactly the expected bound —
// or none where no safe bound exists.
func TestBoundPushdownMatchesReference(t *testing.T) {
	b := pushBoundary
	// A window around the boundary, narrower than the data's extent.
	const window = `(from "05/10/2018 09:30:00" to "05/10/2018 10:20:00")`
	winFrom := time.Date(2018, 5, 10, 9, 30, 0, 0, time.UTC).UnixNano()
	winTo := time.Date(2018, 5, 10, 10, 20, 0, 0, time.UTC).UnixNano()
	cases := []struct {
		name   string
		head   string // a time window line, if any
		cond   string // with-condition on evt, or a global constraint when global is set
		global bool
		params engine.Params
		ref    string // the reference's condition when it differs from cond
		want   pushBound
	}{
		{name: "amount >", cond: "evt.amount > 100", want: pushBound{MinAmount: 101}},
		{name: "amount >=", cond: "evt.amount >= 100", want: pushBound{MinAmount: 100}},
		{name: "amount <", cond: "evt.amount < 100", want: pushBound{MaxAmount: 99}},
		{name: "amount <=", cond: "evt.amount <= 100", want: pushBound{MaxAmount: 100}},
		{name: "amount =", cond: "evt.amount = 100", want: pushBound{MinAmount: 100, MaxAmount: 100}},
		{name: "amount != stays residual", cond: "evt.amount != 100"},
		{name: "fractional >", cond: "evt.amount > 100.5", want: pushBound{MinAmount: 101}},
		{name: "fractional >=", cond: "evt.amount >= 100.5", want: pushBound{MinAmount: 101}},
		{name: "fractional <", cond: "evt.amount < 100.5", want: pushBound{MaxAmount: 100}},
		{name: "fractional <=", cond: "evt.amount <= 100.5", want: pushBound{MaxAmount: 100}},
		{name: "fractional = is empty", cond: "evt.amount = 100.5", want: pushBound{MinAmount: 101, MaxAmount: 100}},
		{name: "> 0", cond: "evt.amount > 0", want: pushBound{MinAmount: 1}},
		{name: ">= 0 is no bound", cond: "evt.amount >= 0"},
		{name: "<= 0 would be a zero max", cond: "evt.amount <= 0"},
		{name: "< 1 would be a zero max", cond: "evt.amount < 1"},
		{name: "<= 1", cond: "evt.amount <= 1", want: pushBound{MaxAmount: 1}},
		{name: "negative >", cond: "evt.amount > -5"},
		{name: "negative <", cond: "evt.amount < -5"},
		// 2^53+1 parses to the float 2^53, which 2^53+1 also rounds to.
		{name: "2^53+1 >", cond: "evt.amount > 9007199254740993", want: pushBound{MinAmount: two53 + 2}},
		{name: "2^53+1 >=", cond: "evt.amount >= 9007199254740993", want: pushBound{MinAmount: two53}},
		{name: "2^53+1 <=", cond: "evt.amount <= 9007199254740993", want: pushBound{MaxAmount: two53 + 1}},
		{name: "2^53+1 <", cond: "evt.amount < 9007199254740993", want: pushBound{MaxAmount: two53 - 1}},
		{name: "param NaN", cond: "evt.amount > $v", params: engine.Params{"v": "NaN"}, ref: "evt.amount < 0"},
		{name: "param NaN <", cond: "evt.amount < $v", params: engine.Params{"v": "NaN"}, ref: "evt.amount < 0"},
		{name: "param +Inf", cond: "evt.amount < $v", params: engine.Params{"v": "+Inf"}, ref: "evt.amount >= 0"},
		{name: "param -Inf", cond: "evt.amount > $v", params: engine.Params{"v": "-Inf"}, ref: "evt.amount >= 0"},
		{name: "param Inf >", cond: "evt.amount > $v", params: engine.Params{"v": "Inf"}, ref: "evt.amount < 0"},
		{name: "param 2^53+1 string", cond: "evt.amount >= $v", params: engine.Params{"v": "9007199254740993"},
			ref: "evt.amount >= 9007199254740993", want: pushBound{MinAmount: two53}},
		{name: "param fraction", cond: "evt.amount <= $v", params: engine.Params{"v": 200.25},
			ref: "evt.amount <= 200.25", want: pushBound{MaxAmount: 200}},

		// Start times near 1.5e18 are 256 apart as floats: every integer
		// within ±128 of the boundary compares equal to it.
		{name: "starttime >= boundary", cond: fmt.Sprintf("evt.starttime >= %d", b), want: pushBound{From: b - 128}},
		{name: "starttime > boundary", cond: fmt.Sprintf("evt.starttime > %d", b), want: pushBound{From: b + 129}},
		{name: "starttime < boundary", cond: fmt.Sprintf("evt.starttime < %d", b), want: pushBound{To: b - 128}},
		{name: "starttime <= boundary", cond: fmt.Sprintf("evt.starttime <= %d", b), want: pushBound{To: b + 129}},
		{name: "starttime >= boundary-1", cond: fmt.Sprintf("evt.starttime >= %d", b-1), want: pushBound{From: b - 128}},
		{name: "start_time > boundary+300", cond: fmt.Sprintf("evt.start_time > %d", b+300), want: pushBound{From: b + 384}},
		// The reference answers start_ts equality from its index by exact
		// integer match; the engine compares as floats, as it does for
		// every operator, so the reference gets the equivalent range.
		{name: "starttime = boundary", cond: fmt.Sprintf("evt.starttime = %d", b),
			ref: fmt.Sprintf("evt.starttime >= %d, evt.starttime <= %d", b, b), want: pushBound{From: b - 128, To: b + 129}},
		{name: "starttime < 0 would be a zero To", cond: "evt.starttime < 0"},
		{name: "starttime > -1 would be a zero From", cond: "evt.starttime > -1"},
		{name: "negative starttime", cond: "evt.starttime < -127.5", want: pushBound{To: -127}},
		{name: "starttime From never comes out 0", cond: "evt.starttime > -6, evt.starttime >= 0", want: pushBound{From: -5}},
		{name: "starttime param NaN", cond: "evt.starttime >= $v", params: engine.Params{"v": "NaN"}, ref: "evt.amount < 0"},
		{name: "starttime param", cond: "evt.starttime < $v", params: engine.Params{"v": float64(b + 1)},
			ref: fmt.Sprintf("evt.starttime < %d", b+1), want: pushBound{To: b - 128}},

		{name: "window and starttime >=", head: window, cond: fmt.Sprintf("evt.starttime >= %d", b),
			want: pushBound{From: b - 128, To: winTo}},
		{name: "window and starttime <", head: window, cond: fmt.Sprintf("evt.starttime < %d", b),
			want: pushBound{From: winFrom, To: b - 128}},
		{name: "window and starttime < 0", head: window, cond: "evt.starttime < 0",
			want: pushBound{From: winFrom, To: winTo}},
		{name: "window and starttime > -1", head: window, cond: "evt.starttime > -1",
			want: pushBound{From: winFrom, To: winTo}},

		{name: "global amount", cond: "amount > 100", global: true, want: pushBound{MinAmount: 101}},
		{name: "global starttime", cond: fmt.Sprintf("starttime >= %d", b), global: true, want: pushBound{From: b - 128}},
	}
	shapes := []struct{ name, pattern string }{
		{"dense", "proc p read || write file f as evt"},
		{"postings", `proc p["%curl%"] read || write file f as evt`},
	}
	query := func(head, pattern, cond string, global bool) string {
		if global {
			return fmt.Sprintf("%s\n%s\n%s\nreturn p, f, evt.amount", head, cond, pattern)
		}
		return fmt.Sprintf("%s\n%s\nwith %s\nreturn p, f, evt.amount", head, pattern, cond)
	}

	layouts := pushdownLayouts(t)
	// The reference loads from the memtable layout: loading scans whole
	// events, which would materialize the file-backed segments and take
	// the column-gather path out of the test.
	rdb := relational.Open(true)
	if err := translate.LoadRelational(rdb, layouts[0].store); err != nil {
		t.Fatalf("LoadRelational: %v", err)
	}
	for _, l := range layouts {
		// One engine per layout with the scan cache on, so every case
		// after the first also checks that scans under different
		// bounds never share cache entries.
		e := engine.NewWithConfig(l.store, engine.Config{ScanCacheBytes: 4 << 20})
		for _, sh := range shapes {
			for _, tc := range cases {
				t.Run(l.name+"/"+sh.name+"/"+tc.name, func(t *testing.T) {
					src := query(tc.head, sh.pattern, tc.cond, tc.global)
					refCond := tc.ref
					if refCond == "" {
						refCond = tc.cond
					}
					refSrc := query(tc.head, sh.pattern, refCond, tc.global)

					p, err := e.Prepare(src)
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					filters, err := engine.PlannedFilters(e, p, tc.params)
					if err != nil {
						t.Fatalf("plan: %v", err)
					}
					if got := boundOf(filters[0]); got != tc.want {
						t.Errorf("planned bound = %+v, want %+v", got, tc.want)
					}
					res, err := e.ExecutePrepared(context.Background(), p, tc.params)
					if err != nil {
						t.Fatalf("execute: %v", err)
					}
					q, err := parser.Parse(refSrc)
					if err != nil {
						t.Fatalf("parse reference: %v", err)
					}
					sqlText, err := translate.ToSQL(q)
					if err != nil {
						t.Fatalf("ToSQL: %v", err)
					}
					ref, err := rdb.Query(sqlText)
					if err != nil {
						t.Fatalf("reference: %v\n%s", err, sqlText)
					}
					got, want := joinedRows(res.Rows), joinedRows(ref.RenderStrings())
					sort.Strings(want)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("rows differ from the reference:\nengine    (%d): %v\nreference (%d): %v",
							len(got), got, len(want), want)
					}
				})
			}
		}
		if l.name == "file-backed" && l.store.SegmentStats().SealedBytes != 0 {
			t.Error("the file-backed segments were materialized: the column-gather path went untested")
		}
	}
}

// joinedRows renders rows one string each. The engine's rows come
// sorted; the reference's are sorted by the caller.
func joinedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\t")
	}
	return out
}
