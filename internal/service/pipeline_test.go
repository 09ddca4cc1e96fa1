package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// abortedScan stands for the scanned-events delta of a stream whose
// sink failed mid-scan: how far the scan got before the abort reached
// it depends on scheduling, so it must only be positive and equal to
// what the response reports.
const abortedScan = ^uint64(0)

// pipelineOutcome is what one request through the service pipeline
// observably did: the response's top-level span names, kind and row
// count, plus the service counter deltas it caused.
type pipelineOutcome struct {
	spans      string // comma-joined direct children of the trace root
	kind       string
	rows       int
	errors     uint64
	canceled   uint64
	timeouts   uint64
	executions uint64
	streamed   uint64
	scanned    uint64
}

func (o pipelineOutcome) String() string {
	return fmt.Sprintf("spans=%q kind=%q rows=%d errors=%d canceled=%d timeouts=%d executions=%d streamed=%d scanned=%d",
		o.spans, o.kind, o.rows, o.errors, o.canceled, o.timeouts, o.executions, o.streamed, o.scanned)
}

// spanNames lists the trace root's direct children in order.
func spanNames(resp *Response) string {
	if resp == nil || resp.Trace == nil {
		return ""
	}
	var names []string
	for _, c := range resp.Trace.Children {
		names = append(names, c.Name)
	}
	return strings.Join(names, ",")
}

// TestServicePipelineTable pins the service's execution pipeline end to
// end: every request form (plain text, inline $params, stmt_id) through
// every entry point (Do, DoStream, sorted DoStream) over both backends
// (local store, scripted shard coordinator), for success, a bad query,
// a sink that fails after three rows, and an already-expired deadline.
func TestServicePipelineTable(t *testing.T) {
	const (
		localRows = 50
		fakeRows  = 6
	)
	fakeData := make([][]string, fakeRows)
	for i := range fakeData {
		fakeData[i] = []string{"worker.exe", fmt.Sprintf("f%d.log", i)}
	}
	backends := map[string]func(t *testing.T) *Service{
		"local": func(t *testing.T) *Service { return New(newTestDB(t, localRows), Config{}) },
		"shard": func(t *testing.T) *Service { return newShardedService(t, &fakeShards{rows: fakeData}, Config{}) },
	}
	bind := map[string]any{"exe": "%worker.exe"}
	// target builds the request for one form; a bad request fails to
	// compile (text, params) or to bind (stmt).
	target := func(t *testing.T, svc *Service, form string, bad bool) Request {
		switch form {
		case "text":
			if bad {
				return Request{Query: "proc p write"}
			}
			return Request{Query: demoQuery}
		case "params":
			if bad {
				return Request{Query: "proc p[$exe] write", Params: bind}
			}
			return Request{Query: paramQuery, Params: bind}
		default:
			info, err := svc.Prepare(paramQuery)
			if err != nil {
				t.Fatal(err)
			}
			if bad {
				return Request{StmtID: info.StmtID, Params: map[string]any{"nope": "x"}}
			}
			return Request{StmtID: info.StmtID, Params: bind}
		}
	}

	// fields: spans, kind, rows, then the counter deltas errors,
	// canceled, timeouts, executions, rows_streamed, scanned_events.
	// The scripted backend ignores deadlines and reports no work for an
	// aborted stream, so its timeout rows succeed and its sink rows scan
	// nothing. Plain text compiles under a "parse" span on either
	// backend, and a failed compile counts as a started execution.
	want := map[string]pipelineOutcome{
		"local/text/do/ok":            {"parse,plan,scan evt", "multievent", 50, 0, 0, 0, 1, 0, 50},
		"local/text/do/bad":           {"", "", 0, 1, 0, 0, 1, 0, 0},
		"local/text/do/timeout":       {"", "", 0, 0, 0, 1, 1, 0, 0},
		"local/text/stream/ok":        {"parse,plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/text/stream/bad":       {"", "", 0, 1, 0, 0, 1, 0, 0},
		"local/text/stream/sink":      {"parse,plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, abortedScan},
		"local/text/stream/timeout":   {"parse,plan", "multievent", 0, 0, 0, 1, 1, 0, 0},
		"local/text/sorted/ok":        {"parse,plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/text/sorted/bad":       {"", "", 0, 1, 0, 0, 1, 0, 0},
		"local/text/sorted/sink":      {"parse,plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, 50},
		"local/text/sorted/timeout":   {"", "", 0, 0, 0, 1, 1, 0, 0},
		"local/params/do/ok":          {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 0, 50},
		"local/params/do/bad":         {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/params/do/timeout":     {"", "", 0, 0, 0, 1, 1, 0, 0},
		"local/params/stream/ok":      {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/params/stream/bad":     {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/params/stream/sink":    {"plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, abortedScan},
		"local/params/stream/timeout": {"plan", "multievent", 0, 0, 0, 1, 1, 0, 0},
		"local/params/sorted/ok":      {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/params/sorted/bad":     {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/params/sorted/sink":    {"plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, 50},
		"local/params/sorted/timeout": {"", "", 0, 0, 0, 1, 1, 0, 0},
		"local/stmt/do/ok":            {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 0, 50},
		"local/stmt/do/bad":           {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/stmt/do/timeout":       {"", "", 0, 0, 0, 1, 1, 0, 0},
		"local/stmt/stream/ok":        {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/stmt/stream/bad":       {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/stmt/stream/sink":      {"plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, abortedScan},
		"local/stmt/stream/timeout":   {"plan", "multievent", 0, 0, 0, 1, 1, 0, 0},
		"local/stmt/sorted/ok":        {"plan,scan evt", "multievent", 50, 0, 0, 0, 1, 50, 50},
		"local/stmt/sorted/bad":       {"", "", 0, 1, 0, 0, 0, 0, 0},
		"local/stmt/sorted/sink":      {"plan,scan evt", "multievent", 3, 0, 1, 0, 1, 3, 50},
		"local/stmt/sorted/timeout":   {"", "", 0, 0, 0, 1, 1, 0, 0},
		"shard/text/do/ok":            {"parse", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/text/do/bad":           {"", "", 0, 1, 0, 0, 1, 0, 0},
		"shard/text/do/timeout":       {"parse", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/text/stream/ok":        {"parse", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/text/stream/bad":       {"", "", 0, 1, 0, 0, 1, 0, 0},
		"shard/text/stream/sink":      {"parse", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/text/stream/timeout":   {"parse", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/text/sorted/ok":        {"parse", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/text/sorted/bad":       {"", "", 0, 1, 0, 0, 1, 0, 0},
		"shard/text/sorted/sink":      {"parse", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/text/sorted/timeout":   {"parse", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/params/do/ok":          {"", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/params/do/bad":         {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/params/do/timeout":     {"", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/params/stream/ok":      {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/params/stream/bad":     {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/params/stream/sink":    {"", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/params/stream/timeout": {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/params/sorted/ok":      {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/params/sorted/bad":     {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/params/sorted/sink":    {"", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/params/sorted/timeout": {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/stmt/do/ok":            {"", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/stmt/do/bad":           {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/stmt/do/timeout":       {"", "multievent", 6, 0, 0, 0, 1, 0, 6},
		"shard/stmt/stream/ok":        {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/stmt/stream/bad":       {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/stmt/stream/sink":      {"", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/stmt/stream/timeout":   {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/stmt/sorted/ok":        {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
		"shard/stmt/sorted/bad":       {"", "", 0, 1, 0, 0, 0, 0, 0},
		"shard/stmt/sorted/sink":      {"", "multievent", 3, 0, 1, 0, 1, 3, 0},
		"shard/stmt/sorted/timeout":   {"", "multievent", 6, 0, 0, 0, 1, 6, 6},
	}

	sinkErr := errors.New("sink failed")
	for _, backend := range []string{"local", "shard"} {
		for _, form := range []string{"text", "params", "stmt"} {
			for _, mode := range []string{"do", "stream", "sorted"} {
				for _, outcome := range []string{"ok", "bad", "sink", "timeout"} {
					if mode == "do" && outcome == "sink" {
						continue
					}
					name := strings.Join([]string{backend, form, mode, outcome}, "/")
					t.Run(name, func(t *testing.T) {
						svc := backends[backend](t)
						req := target(t, svc, form, outcome == "bad")
						req.Trace = true
						req.Sorted = mode == "sorted"
						if outcome == "timeout" {
							req.Timeout = time.Nanosecond
						}
						before := svc.Stats()
						var (
							resp *Response
							err  error
						)
						if mode == "do" {
							resp, err = svc.Do(context.Background(), req)
						} else {
							n := 0
							resp, err = svc.DoStream(context.Background(), req,
								func([]string, bool) error { return nil },
								func([]string) error {
									if outcome == "sink" && n == 3 {
										return sinkErr
									}
									n++
									return nil
								})
						}
						switch outcome {
						case "ok":
							if err != nil {
								t.Fatalf("err = %v", err)
							}
						case "sink":
							if !errors.Is(err, sinkErr) {
								t.Fatalf("err = %v, want the sink error", err)
							}
						case "bad":
							if err == nil {
								t.Fatal("bad query succeeded")
							}
						}
						after := svc.Stats()
						got := pipelineOutcome{
							spans:      spanNames(resp),
							errors:     after.Errors - before.Errors,
							canceled:   after.Canceled - before.Canceled,
							timeouts:   after.Timeouts - before.Timeouts,
							executions: after.Executions - before.Executions,
							streamed:   after.RowsStreamed - before.RowsStreamed,
							scanned:    after.ScannedEvents - before.ScannedEvents,
						}
						if resp != nil {
							got.kind, got.rows = resp.Kind, resp.TotalRows
						}
						w := want[name]
						if w.scanned == abortedScan {
							if resp == nil || got.scanned == 0 || got.scanned != uint64(resp.Stats.ScannedEvents) {
								t.Errorf("aborted stream scanned %d events, response reports %+v", got.scanned, resp)
							}
							got.scanned = abortedScan
						}
						if got != w {
							t.Errorf("\n got %s\nwant %s", got, w)
						}
					})
				}
			}
		}
	}
}
