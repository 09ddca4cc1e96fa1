package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the complete output schema: a run with -trace 0 prints
// every end-to-end metric, a run with -trace 1 every per-layer metric,
// on every workload.
type metricDef struct {
	name string
	unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"first_row_p50_ms", "ms"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p95_ms", "ms"},
	{"ingest_events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"disk_bytes_per_event", "B"},
}

var perLayerMetrics = []metricDef{
	{"aiql.parse_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.exec_us", "us"},
	{"engine.alloc_bytes_per_query", "B"},
	{"engine.bindings_per_row", "ratio"},
	{"engine.scan_events_per_query", "count"},
	{"engine.scan_cache_hit_ratio", "ratio"},
	{"engine.pool_wait_us", "us"},
	{"engine.standing_eval_us", "us"},
	{"engine.standing_fresh_ratio", "ratio"},
	{"workpool.saturated_ratio", "ratio"},
	{"eventstore.block_cache_hit_ratio", "ratio"},
	{"eventstore.block_cache_evictions", "count"},
	{"eventstore.append_us", "us"},
	{"durable.wal_syncs_per_batch", "count"},
	{"durable.wal_bytes_per_event", "B"},
	{"service.self_us", "us"},
	{"service.http_self_us", "us"},
	{"service.bytes_per_row", "B"},
	{"service.ingest_self_us", "us"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"paper.fig4_speedup_pg", "x"},
	{"paper.fig5_speedup_pg", "x"},
	{"paper.fig5_speedup_neo4j", "x"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values. A value that could
// not be measured (no samples, or a ratio over zero) is reported as 0,
// never as NaN, which JSON cannot carry.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// durations is a sample of latencies.
type durations []time.Duration

// quantileMS returns the q-quantile (0..1) by linear interpolation
// between the closest ranks, in milliseconds; 0 for an empty sample.
func (d durations) quantileMS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (float64(s[hi])-float64(s[lo]))*(pos-float64(lo))
	return v / float64(time.Millisecond)
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
