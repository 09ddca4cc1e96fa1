package aiql_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
)

func demoDB(t *testing.T) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	base := time.Date(2018, 5, 10, 13, 30, 0, 0, time.UTC)
	at := func(sec int) int64 { return base.Add(time.Duration(sec) * time.Second).UnixNano() }
	cmd := aiql.Process{PID: 410, ExeName: "cmd.exe", Path: `C:\Windows\System32\cmd.exe`, User: "dbadmin"}
	osql := aiql.Process{PID: 412, ExeName: "osql.exe", Path: `C:\osql.exe`, User: "dbadmin"}
	sqlservr := aiql.Process{PID: 301, ExeName: "sqlservr.exe", Path: `C:\sqlservr.exe`, User: "system"}
	tool := aiql.Process{PID: 905, ExeName: "sbblv.exe", Path: `C:\Temp\sbblv.exe`, User: "dbadmin"}
	dump := aiql.File{Path: `C:\SQLData\backup1.dmp`, Owner: "system"}
	conn := aiql.Netconn{SrcIP: "10.0.0.2", SrcPort: 48600, DstIP: "203.0.113.129", DstPort: 443, Protocol: "tcp"}
	db.AppendAll([]aiql.Record{
		{AgentID: 7, Subject: cmd, Op: aiql.OpStart, ObjType: aiql.EntityProcess, ObjProc: osql, StartTS: at(0)},
		{AgentID: 7, Subject: sqlservr, Op: aiql.OpWrite, ObjType: aiql.EntityFile, ObjFile: dump, StartTS: at(30), Amount: 850000},
		{AgentID: 7, Subject: tool, Op: aiql.OpRead, ObjType: aiql.EntityFile, ObjFile: dump, StartTS: at(60), Amount: 850000},
		{AgentID: 7, Subject: tool, Op: aiql.OpWrite, ObjType: aiql.EntityNetconn, ObjConn: conn, StartTS: at(90), Amount: 850000},
	})
	db.Flush()
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := demoDB(t)
	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	res, err := db.Query(`
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows:\n%s", res.Table())
	}
	want := []string{"cmd.exe", "osql.exe", "sqlservr.exe", "sbblv.exe", `C:\SQLData\backup1.dmp`}
	for i, cell := range res.Rows[0] {
		if cell != want[i] {
			t.Errorf("col %d = %q, want %q", i, cell, want[i])
		}
	}
}

func TestCheckAndKind(t *testing.T) {
	if err := aiql.Check(`proc p start proc q as e return p`); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := aiql.Check(`proc p start file f as e return p`); err == nil {
		t.Error("invalid query accepted")
	}
	kind, err := aiql.QueryKind(`forward: proc p ->[write] file f return f`)
	if err != nil || kind != "dependency" {
		t.Errorf("kind = %q, %v", kind, err)
	}
	kind, _ = aiql.QueryKind(`window = 1 min, step = 1 min
proc p write ip i as e return count(e)`)
	if kind != "anomaly" {
		t.Errorf("kind = %q", kind)
	}
}

func TestExplainPublic(t *testing.T) {
	db := demoDB(t)
	plan, err := db.Explain(`
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f as evt2
return p1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "evt1") || !strings.Contains(plan, "estimated matches") {
		t.Errorf("plan = %q", plan)
	}
}

// OpenDir must refuse a path that is not a store directory — a regular
// file, or a directory whose MANIFEST is garbage — rather than serve an
// empty or partial store.
func TestOpenDirBadPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "data.aiql")
	if err := os.WriteFile(file, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := aiql.OpenDir(file); err == nil {
		db.Close()
		t.Error("expected error for a regular file")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := aiql.OpenDir(dir); err == nil {
		db.Close()
		t.Error("expected error for a corrupt manifest")
	}
}

func TestStatsAndTimeRange(t *testing.T) {
	db := demoDB(t)
	st := db.Stats()
	if st.Events != 4 || st.Processes != 4 || st.Files != 1 || st.Netconns != 1 {
		t.Errorf("stats = %+v", st)
	}
	lo, hi := db.TimeRange()
	if !hi.After(lo) {
		t.Errorf("time range [%v, %v]", lo, hi)
	}
}

func TestAnomalyThroughPublicAPI(t *testing.T) {
	db := demoDB(t)
	res, err := db.Query(`
(from "05/10/2018 13:30:00" to "05/10/2018 13:40:00")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
		t.Errorf("rows = %v", res.Rows)
	}
}

const investigationQuery = `
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`

// TestSaveDirRoundTrip covers the store-directory path every dataset
// takes: a database written with SaveDir must answer queries
// identically through OpenDir, accept appends, and recover them.
func TestSaveDirRoundTrip(t *testing.T) {
	db := demoDB(t)
	want, err := db.Query(investigationQuery)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	dur, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dur.Query(investigationQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table() != want.Table() {
		t.Fatalf("query results differ after SaveDir + OpenDir:\n%s\nwant:\n%s", res.Table(), want.Table())
	}
	if dur.Len() != db.Len() {
		t.Fatalf("%d events, want %d", dur.Len(), db.Len())
	}
	if st := dur.DurableStats(); st.SegmentFiles == 0 || st.ManifestEdition == 0 {
		t.Fatalf("durable stats after SaveDir: %+v", st)
	}
	dur.Append(aiql.Record{
		AgentID: 7,
		Subject: aiql.Process{PID: 999, ExeName: "late.exe", Path: `C:\late.exe`, User: "x"},
		Op:      aiql.OpRead,
		ObjType: aiql.EntityFile,
		ObjFile: aiql.File{Path: `C:\late.txt`},
		StartTS: time.Date(2018, 5, 10, 14, 0, 0, 0, time.UTC).UnixNano(),
	})
	dur.Flush()
	n := dur.Len()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != n {
		t.Fatalf("reopened store has %d events, want %d", reopened.Len(), n)
	}
}

// TestPrepareAcceptance is the acceptance check for the prepared API:
// DB.Prepare + Stmt.Exec with typed $name parameters works across the
// multievent, dependency, and anomaly families.
func TestPrepareAcceptance(t *testing.T) {
	db := demoDB(t)
	ctx := context.Background()

	t.Run("multievent", func(t *testing.T) {
		stmt, err := db.Prepare(`
(at $day)
proc p1[$starter] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`)
		if err != nil {
			t.Fatal(err)
		}
		sig := stmt.Params()
		if len(sig) != 2 || sig[0] != (aiql.ParamSpec{Name: "day", Type: aiql.ParamTime}) ||
			sig[1] != (aiql.ParamSpec{Name: "starter", Type: aiql.ParamString}) {
			t.Fatalf("signature = %+v", sig)
		}
		res, err := stmt.Exec(ctx, aiql.Params{"day": "05/10/2018", "starter": "%cmd.exe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "cmd.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
		miss, err := stmt.Exec(ctx, aiql.Params{"day": "05/11/2018", "starter": "%cmd.exe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(miss.Rows) != 0 {
			t.Fatalf("wrong-day binding matched:\n%s", miss.Table())
		}
	})

	t.Run("dependency", func(t *testing.T) {
		stmt, err := db.Prepare(`backward: ip i1[dstip = $dst] <-[write] proc p ->[read] file f
return distinct p, f`)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Kind() != "dependency" {
			t.Fatalf("kind = %q", stmt.Kind())
		}
		res, err := stmt.Exec(ctx, aiql.Params{"dst": "203.0.113.129"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
	})

	t.Run("anomaly", func(t *testing.T) {
		stmt, err := db.Prepare(`
(from $a to $b)
window = 1 min, step = 1 min
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > 0`)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Kind() != "anomaly" {
			t.Fatalf("kind = %q", stmt.Kind())
		}
		res, err := stmt.Exec(ctx, aiql.Params{"a": "05/10/2018 13:30:00", "b": "05/10/2018 13:40:00"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
	})

	t.Run("cursor and explain", func(t *testing.T) {
		stmt, err := db.Prepare(`proc p[$exe] read || write file f return p, f`)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := stmt.ExecCursor(ctx, aiql.Params{"exe": "%"}, aiql.CursorOptions{Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for cur.Next() {
			rows++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != 1 {
			t.Fatalf("limit-1 cursor yielded %d rows", rows)
		}
		entries, err := stmt.Explain()
		if err != nil || len(entries) != 1 {
			t.Fatalf("explain = %+v, %v", entries, err)
		}
	})

	t.Run("binding errors", func(t *testing.T) {
		stmt, err := db.Prepare(`proc p[$exe] start proc q return p`)
		if err != nil {
			t.Fatal(err)
		}
		var pe *aiql.ParamError
		if err := stmt.Check(aiql.Params{}); !errors.As(err, &pe) {
			t.Errorf("missing binding: %v", err)
		}
		if err := stmt.Check(aiql.Params{"exe": "%x", "nope": 1}); !errors.As(err, &pe) {
			t.Errorf("unknown binding: %v", err)
		}
		if err := stmt.Check(aiql.Params{"exe": "%x"}); err != nil {
			t.Errorf("valid binding rejected: %v", err)
		}
	})
}
