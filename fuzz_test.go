package aiql_test

import (
	"testing"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/experiments"
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
