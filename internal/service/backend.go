package service

import (
	"context"
	"errors"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
)

// ShardQuery is one query the service hands to its backend. A shard
// coordinator fans it out as template text plus raw bindings — prepared
// statements fan out by fingerprint, each member compiling (or reusing)
// the template against its own store.
type ShardQuery struct {
	// Query is the AIQL text: a template when Params is non-empty,
	// plain text otherwise.
	Query string
	// Params are the raw `$name` bindings, forwarded verbatim.
	Params map[string]any
	// Columns is the result header, known from planning before any
	// member responds; streams emit it immediately.
	Columns []string
	// Kind is the query family (multievent, dependency, anomaly).
	Kind string
	// Client is the caller's fairness key, forwarded so member-side
	// admission attributes fan-out load to the real client.
	Client string
	// Limit, when positive, is pushed down to every member: each
	// member's sorted stream stops after Limit rows, and the merged
	// stream stops after Limit rows overall — member streams are
	// sorted, so the first Limit rows of each member are a superset of
	// the global first Limit.
	Limit int
	// RequireAll fails the query on any unreachable member instead of
	// degrading to partial results with warnings.
	RequireAll bool

	// stmt is the statement the service compiled against its own
	// database. Only the local backend reads it; a coordinator cannot,
	// so a planning-database statement never reaches a member.
	stmt *aiql.Stmt
}

// ShardWarning reports one member that could not contribute to a
// scatter-gathered result. A response carrying warnings is partial: the
// rows are complete for every healthy member and missing the rest.
type ShardWarning struct {
	Code  string `json:"code"`  // CodeShardUnavailable
	Shard string `json:"shard"` // member name from the partition map
	Error string `json:"error"`
}

// ShardMemberStats are one member's monotonic fan-out counters plus its
// probed health.
type ShardMemberStats struct {
	Shard   string `json:"shard"`
	Remote  bool   `json:"remote"`
	Healthy bool   `json:"healthy"`
	// Fanouts counts queries dispatched to the member; Pruned counts
	// queries whose time window or agent filter proved the member could
	// hold no matches, skipped without contact.
	Fanouts uint64 `json:"fanouts"`
	Pruned  uint64 `json:"pruned"`
	Retries uint64 `json:"retries"`
	Errors  uint64 `json:"errors"`
	Rows    uint64 `json:"rows"`
}

// ShardStats snapshots a shard coordinator for /api/v1/stats and the
// metrics collector.
type ShardStats struct {
	Queries    uint64             `json:"queries"`
	Partial    uint64             `json:"partial"` // queries degraded to partial results
	Generation uint64             `json:"generation"`
	Members    []ShardMemberStats `json:"members"`
}

// ShardBackend executes the service's queries. The service stays the
// single admission/caching/pagination layer over one of two backends:
// the local store (the one-member case), or a shard coordinator that
// owns fan-out, per-member transport, pruning, and the deterministic
// merge. Implementations must be safe for concurrent use.
type ShardBackend interface {
	// Run returns the full result in canonical sorted order. A
	// coordinator scatter-gathers it: every member's sorted rows, k-way
	// merge-sorted with engine.RowLess — byte-identical to the same data
	// executed in one store. Warnings name members that could not
	// contribute (nil error: partial result).
	Run(ctx context.Context, q ShardQuery) (*engine.Result, []ShardWarning, error)
	// RunStream streams rows as they are produced: header is called once
	// before any row, and a positive q.Limit stops the stream after that
	// many rows. A coordinator merge-streams its members in sorted order
	// (cancelling member streams once the merged limit is reached); the
	// local store streams in production order.
	RunStream(ctx context.Context, q ShardQuery, header func(cols []string) error, row func([]string) error) (engine.ExecStats, []ShardWarning, error)
	// Generation identifies the store version results are computed
	// over, for result-cache keying. A coordinator's changes whenever
	// any local member commits or a remote member's probed epoch moves.
	Generation() uint64
	// Stats snapshots a coordinator's counters (nil for the local
	// store).
	Stats() *ShardStats
	// Close stops probes and releases member transports.
	Close() error
}

// localBackend executes on the service's own store.
type localBackend struct{ db *aiql.DB }

// Run executes the compiled statement, materializing the result in
// canonical sorted order.
func (b localBackend) Run(ctx context.Context, q ShardQuery) (*engine.Result, []ShardWarning, error) {
	res, err := q.stmt.Exec(ctx, q.Params)
	return res, nil, err
}

// RunStream walks the statement's cursor in production order with
// q.Limit pushed into the scan.
func (b localBackend) RunStream(ctx context.Context, q ShardQuery, header func(cols []string) error, row func([]string) error) (engine.ExecStats, []ShardWarning, error) {
	cur, err := q.stmt.ExecCursor(ctx, q.Params, aiql.CursorOptions{Limit: q.Limit})
	if err != nil {
		return engine.ExecStats{}, nil, err
	}
	err = header(cur.Columns())
	for err == nil && cur.Next() {
		err = row(cur.Row())
	}
	if err == nil {
		err = cur.Err()
	}
	// Close blocks until in-flight scans observe the abort, so the
	// statistics are final whether the stream completed, failed, or was
	// abandoned by its sink.
	cur.Close()
	return cur.Stats(), nil, err
}

// Generation is the store's commit counter.
func (b localBackend) Generation() uint64 { return b.db.Commits() }

func (b localBackend) Stats() *ShardStats { return nil }

// Close is a no-op: the service does not own its database.
func (b localBackend) Close() error { return nil }

// WithRetryHint decorates err with the backoff (whole seconds) the
// client should observe before retrying; the HTTP layer surfaces it as
// the Retry-After header. The shard coordinator uses it to propagate a
// throttled member's own hint — the largest across members — instead of
// synthesizing a new one from coordinator-local queue pressure.
func WithRetryHint(err error, seconds int) error {
	if seconds < 1 {
		seconds = 1
	}
	return &retryHintError{err: err, after: seconds}
}

// RetryHintSeconds extracts a Retry-After hint attached by
// WithRetryHint or the admission layer (0, false when none is set).
func RetryHintSeconds(err error) (int, bool) {
	var hint *retryHintError
	if errors.As(err, &hint) {
		return hint.after, true
	}
	return 0, false
}
