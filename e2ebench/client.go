package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/aiql/aiql/internal/service"
)

// client is one loopback connection to the server. Each client names
// itself with X-Client-Id, so the server's per-client fairness treats
// the reader and the writer as separate callers.
type client struct {
	hc   *http.Client
	base string
	id   string
	buf  []byte
	ok   *verified
}

func newClient(base, id string, ok *verified) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, base: base, id: id, ok: ok}
}

// verified remembers, per request, the hash of the answer bytes of a
// response that passed the full check against the reference. A later
// response whose answer bytes hash the same is the same answer, so it
// is accepted without parsing it again; any other response gets the
// full check. This keeps the client's own parsing, and the garbage
// collection it would trigger, off the CPUs the server is measured on.
type verified struct {
	mu sync.Mutex
	m  map[string][sha256.Size]byte // request and its reference → answer hash
}

func newVerified() *verified { return &verified{m: map[string][sha256.Size]byte{}} }

// answerBytes is the part of a response body that depends only on the
// answer: the rows and total_rows, without the timings around them.
func answerBytes(body []byte) []byte {
	from := bytes.Index(body, []byte(`"rows":`))
	to := bytes.Index(body, []byte(`,"offset":`))
	if from < 0 || to < from {
		return nil
	}
	return body[from:to]
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one prepared read: the request and its encoded body, made
// before timing so the client's own encoding is not measured.
type call struct {
	req  *request
	body []byte
}

func makeCalls(reqs []request, trace bool) ([]call, error) {
	out := make([]call, len(reqs))
	for i := range reqs {
		body, err := json.Marshal(service.QueryRequest{Query: reqs[i].Query, Dataset: reqs[i].Dataset, Trace: trace})
		if err != nil {
			return nil, err
		}
		out[i] = call{req: &reqs[i], body: body}
	}
	return out, nil
}

// readOutcome is one timed read: latency to the last body byte and to
// the first body byte, and whether the answer matched its reference.
type readOutcome struct {
	label        string
	total, first time.Duration
	bytes, rows  int
	err          error
}

func (c *client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("X-Client-Id", c.id)
	hr.Header.Set("Content-Type", "application/json")
	return c.hc.Do(hr)
}

// read sends one query and checks its answer.
func (c *client) read(ctx context.Context, cl call) readOutcome {
	start := time.Now()
	resp, err := c.post(ctx, "/api/v1/query", cl.body)
	if err != nil {
		return readOutcome{label: cl.req.Label, err: err}
	}
	defer resp.Body.Close()
	out := readOutcome{label: cl.req.Label}
	c.buf = c.buf[:0]
	var chunk [32 << 10]byte
	for {
		n, err := resp.Body.Read(chunk[:])
		if n > 0 {
			if out.first == 0 {
				out.first = time.Since(start)
			}
			c.buf = append(c.buf, chunk[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	out.total = time.Since(start)
	if out.first == 0 {
		out.first = out.total
	}
	out.bytes = len(c.buf)
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("%s: HTTP %d: %.200s", cl.req.Label, resp.StatusCode, c.buf)
		return out
	}
	ans := answerBytes(c.buf)
	sum := sha256.Sum256(ans)
	key := fmt.Sprintf("%s\x00%s\x00%d", cl.req.Label, cl.req.Digest, cl.req.Rows)
	c.ok.mu.Lock()
	known, seen := c.ok.m[key]
	c.ok.mu.Unlock()
	if ans != nil && seen && known == sum {
		out.rows = cl.req.Rows
		return out
	}
	out.rows, out.err = checkBody(cl.req, c.buf)
	if out.err == nil && ans != nil {
		c.ok.mu.Lock()
		c.ok.m[key] = sum
		c.ok.mu.Unlock()
	}
	// Collect the parse's garbage now, not while the next request runs.
	runtime.GC()
	return out
}

// checkBody parses a response body and compares it with the reference.
func checkBody(r *request, body []byte) (int, error) {
	var qr service.QueryResult
	if err := json.Unmarshal(body, &qr); err != nil {
		return 0, fmt.Errorf("%s: bad response: %w", r.Label, err)
	}
	rows, total := qr.Rows, qr.TotalRows
	if total != r.Rows || len(rows) != r.Rows {
		return len(rows), fmt.Errorf("%s: %d rows (total_rows %d), reference has %d", r.Label, len(rows), total, r.Rows)
	}
	if d := digestRows(rows); d != r.Digest {
		return len(rows), fmt.Errorf("%s: row digest %s, reference %s", r.Label, d, r.Digest)
	}
	return len(rows), nil
}

// ingest posts one NDJSON batch and returns the ack latency.
func (c *client) ingest(ctx context.Context, dataset string, body []byte) (time.Duration, service.IngestResult, error) {
	var res service.IngestResult
	start := time.Now()
	resp, err := c.post(ctx, "/api/v1/ingest?dataset="+dataset, body)
	if err != nil {
		return 0, res, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	el := time.Since(start)
	if err != nil {
		return el, res, err
	}
	if resp.StatusCode != http.StatusOK {
		return el, res, fmt.Errorf("ingest: HTTP %d: %.200s", resp.StatusCode, b)
	}
	return el, res, json.Unmarshal(b, &res)
}

// watch registers a standing query and returns its description.
func (c *client) watch(ctx context.Context, dataset, query string) (service.WatchInfo, error) {
	var info service.WatchInfo
	body, err := json.Marshal(service.WatchRequest{Query: query, Dataset: dataset})
	if err != nil {
		return info, err
	}
	resp, err := c.post(ctx, "/api/v1/watch", body)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return info, err
	}
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("watch: HTTP %d: %.200s", resp.StatusCode, b)
	}
	return info, json.Unmarshal(b, &info)
}

// watches lists a dataset's standing queries.
func (c *client) watches(ctx context.Context, dataset string) ([]service.WatchInfo, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/watch?dataset="+dataset, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []service.WatchInfo
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list watches: HTTP %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
