package aiql_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingBinariesSkipBaselines: the query server and the one-shot
// CLI must not link the paper's evaluation baselines — the relational
// (PostgreSQL) and graph (Neo4j) emulations, the AIQL-to-SQL/Cypher
// translator, the conciseness counter, or the experiment harness. Those
// exist for aiqlbench and the tests only.
func TestServingBinariesSkipBaselines(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", "./cmd/aiqlserver", "./cmd/aiql").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	banned := map[string]bool{"relational": true, "translate": true, "graphdb": true, "concise": true, "experiments": true}
	for _, pkg := range strings.Fields(string(out)) {
		if name, ok := strings.CutPrefix(pkg, "github.com/aiql/aiql/internal/"); ok && banned[name] {
			t.Errorf("a serving binary links %s", pkg)
		}
	}
}
