package aiql_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/sysmon"
)

// FuzzPrepare feeds arbitrary text — what the query service receives
// from clients — through the syntax checker and the statement compiler.
// Neither may panic, and a statement that compiles must also explain.
// The seeds are the paper's 45 Figure 4 and Figure 5 investigation
// queries; testdata/fuzz adds templates and malformed inputs.
func FuzzPrepare(f *testing.F) {
	for _, q := range append(experiments.Fig4Queries(), experiments.Fig5Queries()...) {
		f.Add(q.Text)
	}
	db := aiql.Open()
	f.Fuzz(func(t *testing.T, src string) {
		aiql.Check(src)
		stmt, err := db.Prepare(src)
		if err != nil {
			return
		}
		if _, err := stmt.Explain(); err != nil {
			t.Fatalf("compiled statement fails to explain: %v\n%s", err, src)
		}
	})
}

// bindTemplates are the parameterized statements FuzzBindParams binds:
// one per storage bound the planner pushes from a `$name` comparison.
// col is the result column the comparison reads.
var bindTemplates = []struct {
	src string
	col int
	op  func(v, x float64) bool
}{
	{"proc p read || write file f as evt\nwith evt.amount > $floor\nreturn p, f, evt.amount, evt.starttime",
		2, func(v, x float64) bool { return v > x }},
	{"proc p read || write file f as evt\nwith evt.amount <= $cap\nreturn p, f, evt.amount, evt.starttime",
		2, func(v, x float64) bool { return v <= x }},
	{"proc p read || write file f as evt\nwith evt.starttime >= $t\nreturn p, f, evt.amount, evt.starttime",
		3, func(v, x float64) bool { return v >= x }},
}

// bindParamsDB is a small store with sealed segments and a memtable
// tail, amounts from 0 to 2^53+3 and start times over two hours.
func bindParamsDB() *aiql.DB {
	db := aiql.Open()
	base := time.Date(2018, 5, 10, 9, 0, 0, 0, time.UTC).UnixNano()
	exes := []string{"bash", "curl", "python"}
	var recs []aiql.Record
	for i := 0; i < 240; i++ {
		amount := uint64(i * 37 % 1000)
		if i%40 == 0 {
			amount = 1<<53 + uint64(i/40%4)
		}
		recs = append(recs, aiql.Record{
			AgentID: uint32(1 + i%2),
			Subject: sysmon.Process{PID: 10, ExeName: exes[i%3], Path: "/usr/bin/" + exes[i%3]},
			Op:      []sysmon.Operation{sysmon.OpRead, sysmon.OpWrite}[i%2],
			ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: fmt.Sprintf("/data/f%d", i%11)},
			StartTS: base + int64(i)*int64(30*time.Second) + int64(i%5) - 2,
			Amount:  amount,
		})
		if i == 160 {
			db.AppendAll(recs)
			db.Flush()
			recs = nil
		}
	}
	db.AppendAll(recs)
	return db
}

// FuzzBindParams binds arbitrary JSON values — what a client sends as
// `params` — into templates whose comparisons the planner pushes into
// the storage filter. Binding and execution must never panic. A binding
// that executes must return exactly the rows of the unconstrained
// query that pass the comparison, evaluated here without the planner,
// and, for a finite value, the rows of the same query with the value
// written inline.
func FuzzBindParams(f *testing.F) {
	for _, seed := range []string{`100`, `-3`, `"250"`, `true`, `null`} {
		for i := range bindTemplates {
			f.Add(uint8(i), seed)
		}
	}
	db := bindParamsDB()
	stmts := make([]*aiql.Stmt, len(bindTemplates))
	for i, tmpl := range bindTemplates {
		stmt, err := db.Prepare(tmpl.src)
		if err != nil {
			f.Fatalf("prepare %q: %v", tmpl.src, err)
		}
		stmts[i] = stmt
	}
	all, err := db.Query("proc p read || write file f as evt\nreturn p, f, evt.amount, evt.starttime")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, which uint8, raw string) {
		var v any
		if json.Unmarshal([]byte(raw), &v) != nil {
			return
		}
		k := int(which) % len(bindTemplates)
		tmpl, stmt := bindTemplates[k], stmts[k]
		name := stmt.Params()[0].Name
		res, err := stmt.Exec(context.Background(), aiql.Params{name: v})
		if err != nil {
			return
		}
		var x float64
		switch val := v.(type) {
		case float64:
			x = val
		case string:
			if x, err = strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("$%s bound the non-number %q", name, val)
			}
		default:
			t.Fatalf("$%s bound a %T", name, v)
		}
		var want [][]string
		for _, row := range all.Rows {
			n, err := strconv.ParseInt(row[tmpl.col], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if tmpl.op(float64(n), x) {
				want = append(want, row)
			}
		}
		if !sameRows(res.Rows, want) {
			t.Fatalf("$%s = %s: %d rows bound, %d pass the comparison", name, raw, len(res.Rows), len(want))
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // no literal to write inline
		}
		inline := strings.Replace(tmpl.src, "$"+name, strconv.FormatFloat(x, 'f', -1, 64), 1)
		ref, err := db.Query(inline)
		if err != nil {
			t.Fatalf("inline query fails: %v\n%s", err, inline)
		}
		if !sameRows(res.Rows, ref.Rows) {
			t.Fatalf("$%s = %s: %d rows bound, %d inline", name, raw, len(res.Rows), len(ref.Rows))
		}
	})
}

// sameRows compares two row lists, treating nil and empty as equal.
func sameRows(a, b [][]string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
