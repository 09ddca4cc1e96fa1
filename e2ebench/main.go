// Command e2ebench is the repository's end-to-end benchmark.
//
// With -trace 0 it starts a real aiqlserver process on pre-generated v2
// store directories (result cache off, everything else at its
// defaults), drives it over loopback HTTP with one workload, checks
// every answer against a reference computed with the independent
// translate→relational engine, and prints the end-to-end metrics. With
// -trace 1 it replays the same inputs in-process and times the calls
// into each layer's public functions from the outside, printing the
// per-layer metrics. Run it through run.sh, which builds both programs:
//
//	bash e2ebench/run.sh --workload live --seed 1 --seconds 15 --trace 0
//
// Inputs and their reference answers are generated once per checkout
// and cached under -work; their cost is in no metric. The seed draws the
// order of each run's reads. The last line of
// standard output is the result:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/aiql/aiql/internal/catalog"
	"github.com/aiql/aiql/internal/eventstore"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	root     string // the repository checkout the inputs are made with
	work     string
	inputs   string // the cached inputs' directory under work, from inputsDir
	scale    scale
}

func main() {
	o := options{scale: scales["full"]}
	flag.StringVar(&o.workload, "workload", "", "sweep or live")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds (live: its writer sends a fixed 60 batches per second of this; sweep: 5 distinct reads per second of this)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics against aiqlserver; 1: per-layer metrics from an in-process replay")
	flag.StringVar(&o.server, "server", "", "aiqlserver binary built from the commit under test")
	flag.StringVar(&o.root, "root", ".", "root of the repository checkout under test")
	flag.StringVar(&o.work, "work", ".bench_build/work", "directory for cached inputs and run scratch")
	flag.Parse()
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if o.trace == 0 && o.server == "" {
		fatalf("-server is required with -trace 0")
	}
	res, report, err := run(context.Background(), o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(report)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// run builds the workload's inputs and measures it. The report carries
// the run metadata and diagnostics; the result is the contract line.
func run(ctx context.Context, o options) (*result, map[string]any, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	var err error
	if o.inputs, err = inputsDir(o.root, o.work, o.scale); err != nil {
		return nil, nil, err
	}
	// The sweep inputs take minutes to make, so whichever run comes first
	// in a checkout makes them, next to the build, whatever its workload.
	if _, err := loadSweepInputs(o.inputs, o.scale); err != nil {
		return nil, nil, err
	}
	w, err := buildWorkload(o)
	if err != nil {
		return nil, nil, err
	}
	// Return the input generator's heap before measuring anything.
	debug.FreeOSMemory()
	report := map[string]any{"meta": metadata(o, w)}
	var res *result
	if o.trace == 0 {
		// The client only waits on the server: one P keeps its idle
		// threads from spinning on the CPUs the server is measured on.
		runtime.GOMAXPROCS(1)
		res, err = runE2E(ctx, o, w, report)
	} else {
		res, err = runTrace(ctx, o, w, report)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, report, nil
}

// metadata describes the run and the machine: what was measured, and
// whether each workload's data fits the program's caches here.
func metadata(o options, w *workload) map[string]any {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	server := ""
	if o.server != "" {
		if out, err := exec.Command(o.server, "-version").Output(); err == nil {
			server = strings.TrimSpace(string(out))
		}
	}
	datasets := map[string]any{}
	for name, dir := range w.dirs() {
		disk, _ := dirBytes(dir)
		datasets[name] = map[string]any{"events": w.events[name], "disk_bytes": disk, "decoded_block_bytes": w.decoded[name]}
	}
	return map[string]any{
		"workload":          o.workload,
		"why":               workloadWhy[o.workload],
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"scale":             o.scale.name,
		"inputs":            filepath.Base(o.inputs),
		"commit":            commit,
		"server":            server,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"datasets":          datasets,
		"block_cache_bytes": eventstore.DefaultBlockCacheBytes,
		"scan_cache_bytes":  catalog.DefaultScanCacheBytes,
		"reads_per_cycle":   len(w.reads),
		"ingest_batches":    len(w.batches),
		"standing_queries":  len(w.watches),
	}
}
