package service

import (
	"bytes"
	"context"
	"testing"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// FuzzCursorToken: cursor tokens come back from clients, so decoding
// arbitrary text must never panic, a token that decodes re-encodes to
// the same triple, and every encoded token decodes to its inputs.
func FuzzCursorToken(f *testing.F) {
	f.Fuzz(func(t *testing.T, tok string, qhash, commits uint64, offset int) {
		if q, c, o, err := decodeCursorToken(tok); err == nil {
			q2, c2, o2, err := decodeCursorToken(encodeCursorToken(q, c, o))
			if err != nil || q2 != q || c2 != c || o2 != o {
				t.Fatalf("re-encoded %q decodes to (%x, %d, %d, %v), want (%x, %d, %d)", tok, q2, c2, o2, err, q, c, o)
			}
		}
		if offset < 0 {
			offset = ^offset // offsets are never negative
		}
		q, c, o, err := decodeCursorToken(encodeCursorToken(qhash, commits, offset))
		if err != nil || q != qhash || c != commits || o != offset {
			t.Fatalf("token for (%x, %d, %d) decodes to (%x, %d, %d, %v)", qhash, commits, offset, q, c, o, err)
		}
	})
}

// FuzzIngestRecord: ingest bodies come from agents over the network, so
// decoding arbitrary bytes through handleIngest's decoder must never
// panic. Every batch it accepts must commit to a store, and for each
// agent, op and object type the batch carries, the batch collector must
// return exactly the row scan's events — the memtable's scan-key column
// has to pack every value the wire format admits.
func FuzzIngestRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := decodeIngest(bytes.NewReader(body))
		if err != nil || len(recs) == 0 {
			return
		}
		// Two commits, so a second half that starts earlier than the
		// first takes the memtable's out-of-order merge.
		s := eventstore.New(eventstore.DefaultOptions())
		half := len(recs) / 2
		if err := s.AppendAll(recs[:half]); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendAll(recs[half:]); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if snap.Len() != len(recs) {
			t.Fatalf("committed %d events, decoded %d records", snap.Len(), len(recs))
		}
		// One filter per distinct agent, op and object type (each a
		// single-value masked compare), plus one per distinct triple.
		type triple struct {
			agent uint32
			op    sysmon.Operation
			typ   sysmon.EntityType
		}
		filters := []*eventstore.EventFilter{{}}
		agents, ops, types := map[uint32]bool{}, map[sysmon.Operation]bool{}, map[sysmon.EntityType]bool{}
		triples := map[triple]bool{}
		for _, r := range recs {
			if !agents[r.AgentID] {
				agents[r.AgentID] = true
				filters = append(filters, &eventstore.EventFilter{Agents: []uint32{r.AgentID}})
			}
			if !ops[r.Op] {
				ops[r.Op] = true
				filters = append(filters, &eventstore.EventFilter{Ops: []sysmon.Operation{r.Op}})
			}
			if !types[r.ObjType] {
				types[r.ObjType] = true
				filters = append(filters, &eventstore.EventFilter{ObjType: r.ObjType})
			}
			if k := (triple{r.AgentID, r.Op, r.ObjType}); !triples[k] {
				triples[k] = true
				filters = append(filters, &eventstore.EventFilter{Agents: []uint32{k.agent}, Ops: []sysmon.Operation{k.op}, ObjType: k.typ})
			}
		}
		matched := 0
		for _, flt := range filters {
			cf := flt.Compile()
			for _, u := range snap.Units(flt) {
				batch, _, complete := u.CollectBatch(context.Background(), cf, nil)
				if !complete {
					t.Fatal("batch collect incomplete without cancellation")
				}
				var want []uint64
				u.Scan(flt, func(ev *sysmon.Event) bool {
					want = append(want, ev.ID)
					return true
				})
				if len(batch) != len(want) {
					t.Fatalf("filter %+v: batch path found %d events, scan found %d", *flt, len(batch), len(want))
				}
				for i := range batch {
					if batch[i].ID != want[i] {
						t.Fatalf("filter %+v: event %d differs: batch %d, scan %d", *flt, i, batch[i].ID, want[i])
					}
				}
				if len(flt.Agents) > 0 && len(flt.Ops) > 0 && flt.ObjType != sysmon.EntityInvalid {
					matched += len(batch)
				}
			}
		}
		// Every event carries exactly one triple.
		if matched != len(recs) {
			t.Fatalf("agent/op/type filters matched %d of %d events", matched, len(recs))
		}
	})
}
