package relational

import (
	"reflect"
	"testing"
)

// newTestDB builds a small two-table database (people, orders).
func newTestDB(t *testing.T, optimized bool) *DB {
	t.Helper()
	db := Open(optimized)
	people, err := db.CreateTable("people", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "name", Type: TypeText},
		{Name: "age", Type: TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{Int(1), Str("alice"), Int(34)},
		{Int(2), Str("bob"), Int(28)},
		{Int(3), Str("carol"), Int(41)},
		{Int(4), Str("dave"), Int(28)},
	}
	if err := people.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	orders, err := db.CreateTable("orders", []Column{
		{Name: "id", Type: TypeInt},
		{Name: "person_id", Type: TypeInt},
		{Name: "item", Type: TypeText},
		{Name: "price", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	orows := [][]Value{
		{Int(10), Int(1), Str("book"), Float(12.5)},
		{Int(11), Int(1), Str("pen"), Float(2)},
		{Int(12), Int(2), Str("book"), Float(13)},
		{Int(13), Int(3), Str("lamp"), Float(40)},
	}
	if err := orders.InsertAll(orows); err != nil {
		t.Fatal(err)
	}
	if optimized {
		for _, idx := range [][2]string{{"people", "id"}, {"people", "name"}, {"orders", "person_id"}} {
			if err := db.CreateIndex(idx[0], idx[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func queryStrings(t *testing.T, db *DB, sql string) [][]string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows.RenderStrings()
}

func TestSelectWhere(t *testing.T) {
	for _, opt := range []bool{true, false} {
		db := newTestDB(t, opt)
		got := queryStrings(t, db, `SELECT name FROM people WHERE age = 28 ORDER BY name`)
		want := [][]string{{"bob"}, {"dave"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("optimized=%v: got %v, want %v", opt, got, want)
		}
	}
}

// TestExponentLiteral: numbers in exponent notation — how numfmt
// renders values of 1e15 and up — lex as numbers.
func TestExponentLiteral(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT name FROM people WHERE age = 2.8e+1 AND age < 1E2 ORDER BY name`)
	want := [][]string{{"bob"}, {"dave"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestJoinOn(t *testing.T) {
	for _, opt := range []bool{true, false} {
		db := newTestDB(t, opt)
		got := queryStrings(t, db, `
SELECT p.name, o.item FROM people p JOIN orders o ON o.person_id = p.id
WHERE o.price > 10 ORDER BY name, item`)
		want := [][]string{{"alice", "book"}, {"bob", "book"}, {"carol", "lamp"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("optimized=%v: got %v, want %v", opt, got, want)
		}
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `
SELECT p.name, o.item FROM people p, orders o
WHERE o.person_id = p.id AND p.name = 'alice' ORDER BY item`)
	want := [][]string{{"alice", "book"}, {"alice", "pen"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `
SELECT p.name, o.item FROM people p LEFT JOIN orders o ON o.person_id = p.id
ORDER BY name, item`)
	want := [][]string{
		{"alice", "book"}, {"alice", "pen"},
		{"bob", "book"}, {"carol", "lamp"},
		{"dave", "NULL"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `
SELECT p.name, COUNT(*) AS n, SUM(o.price) AS total
FROM people p JOIN orders o ON o.person_id = p.id
GROUP BY p.name HAVING COUNT(*) >= 1 ORDER BY name`)
	want := [][]string{
		{"alice", "2", "14.5"},
		{"bob", "1", "13"},
		{"carol", "1", "40"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT COUNT(*) AS n FROM people WHERE age > 100`)
	want := [][]string{{"0"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLikeCaseInsensitive(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT name FROM people WHERE name LIKE '%AL%' ORDER BY name`)
	want := [][]string{{"alice"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT DISTINCT age FROM people ORDER BY age`)
	want := [][]string{{"28"}, {"34"}, {"41"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinct: got %v, want %v", got, want)
	}
	got = queryStrings(t, db, `SELECT DISTINCT age FROM people ORDER BY age LIMIT 2`)
	want = [][]string{{"28"}, {"34"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("limit: got %v, want %v", got, want)
	}
}

func TestDerivedTable(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `
SELECT s.name, s.total FROM (
  SELECT p.name AS name, SUM(o.price) AS total
  FROM people p JOIN orders o ON o.person_id = p.id
  GROUP BY p.name
) AS s WHERE s.total > 13 ORDER BY name`)
	want := [][]string{{"alice", "14.5"}, {"carol", "40"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDerivedTableSelfJoinWithCoalesce(t *testing.T) {
	db := newTestDB(t, true)
	// the pattern the anomaly-query translation relies on: a bucketed
	// aggregate left-joined to its own lagged buckets
	got := queryStrings(t, db, `
SELECT b0.age, b0.n, COALESCE(b1.n, 0) AS prev
FROM (SELECT age, COUNT(*) AS n FROM people GROUP BY age) b0
LEFT JOIN (SELECT age, COUNT(*) AS n FROM people GROUP BY age) b1
  ON b1.age = b0.age - 6
ORDER BY age`)
	want := [][]string{
		{"28", "2", "0"},
		{"34", "1", "2"},
		{"41", "1", "0"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestInAndBetween(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT name FROM people WHERE age IN (28, 41) ORDER BY name`)
	want := [][]string{{"bob"}, {"carol"}, {"dave"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IN: got %v, want %v", got, want)
	}
	got = queryStrings(t, db, `SELECT name FROM people WHERE age BETWEEN 30 AND 45 ORDER BY name`)
	want = [][]string{{"alice"}, {"carol"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BETWEEN: got %v, want %v", got, want)
	}
}

func TestArithmeticAndNullDivision(t *testing.T) {
	db := newTestDB(t, true)
	got := queryStrings(t, db, `SELECT name, age * 2 + 1 AS x FROM people WHERE name = 'bob'`)
	want := [][]string{{"bob", "57"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arith: got %v, want %v", got, want)
	}
	got = queryStrings(t, db, `SELECT age / 0 AS x FROM people WHERE name = 'bob'`)
	want = [][]string{{"NULL"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("div0: got %v, want %v", got, want)
	}
}

func TestErrorCases(t *testing.T) {
	db := newTestDB(t, true)
	for _, sql := range []string{
		`SELECT`,                                 // nothing to select
		`SELECT x FROM nosuch`,                   // unknown table
		`SELECT bogus FROM people`,               // unknown column
		`SELECT p.id FROM people p, orders p`,    // duplicate alias is tolerated? ambiguity surfaces at resolve
		`SELECT name FROM people WHERE`,          // dangling where
		`SELECT name FROM people ORDER BY nope`,  // unknown order key
		`SELECT id FROM (SELECT id FROM people)`, // derived table without alias
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q): expected error, got none", sql)
		}
	}
}

func TestIndexRefusedWhenUnoptimized(t *testing.T) {
	db := newTestDB(t, false)
	if err := db.CreateIndex("people", "id"); err == nil {
		t.Fatal("expected CreateIndex to fail on unoptimized database")
	}
}

func TestIndexAndSeqScanAgree(t *testing.T) {
	sqls := []string{
		`SELECT name FROM people WHERE name = 'alice'`,
		`SELECT name FROM people WHERE id >= 2 AND id <= 3 ORDER BY name`,
		`SELECT p.name, o.item FROM people p JOIN orders o ON o.person_id = p.id ORDER BY name, item`,
	}
	opt := newTestDB(t, true)
	plain := newTestDB(t, false)
	for _, sql := range sqls {
		a := queryStrings(t, opt, sql)
		b := queryStrings(t, plain, sql)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s:\n optimized=%v\n plain=%v", sql, a, b)
		}
	}
}
