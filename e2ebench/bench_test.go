package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func tinyOptions(t *testing.T, server, work, wl string, trace int) options {
	t.Helper()
	o := options{workload: wl, seed: 3, seconds: 1, trace: trace, server: server, root: "..", work: work, scale: scales["tiny"]}
	var err error
	if o.inputs, err = inputsDir(o.root, o.work, o.scale); err != nil {
		t.Fatal(err)
	}
	return o
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aiqlserver")
	out, err := exec.Command("go", "build", "-o", bin, "github.com/aiql/aiql/cmd/aiqlserver").CombinedOutput()
	if err != nil {
		t.Fatalf("build aiqlserver: %v\n%s", err, out)
	}
	return bin
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json at the
// tiny scale in both modes and checks that the result line carries
// exactly the metrics BENCHMARK.json names for that mode, with their
// units, and that every operation succeeded.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds aiqlserver and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	server, work := buildServer(t), t.TempDir()
	for _, wl := range spec.Workloads {
		name := wl.Name
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			res, _, err := run(context.Background(), tinyOptions(t, server, work, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed result
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if !printed.Correct || printed.Failed != 0 || printed.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, trace, printed.Correct, printed.Failed, printed.Attempted)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", name, trace, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s not printed", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed with unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptDigestFails checks that a response that disagrees with its
// reference answer is counted as a failed operation, end to end and in
// the traced replay.
func TestCorruptDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds aiqlserver and runs a workload")
	}
	server, work := buildServer(t), t.TempDir()
	for trace := 0; trace <= 1; trace++ {
		o := tinyOptions(t, server, work, "sweep", trace)
		w, err := buildWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		reads := append([]request(nil), w.reads...)
		reads[0].Digest = "00000000000000000000000000000000"
		w.reads = reads
		report := map[string]any{}
		var res *result
		if trace == 0 {
			res, err = runE2E(context.Background(), o, w, report)
		} else {
			res, err = runTrace(context.Background(), o, w, report)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("trace=%d: corrupted reference digest not reported: correct=%v failed=%d of %d", trace, res.Correct, res.Failed, res.Attempted)
		}
	}
}
