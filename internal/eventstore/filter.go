package eventstore

import (
	"github.com/aiql/aiql/internal/sysmon"
)

// EventFilter describes the events one data query selects: the spatial
// scope (agents), the temporal scope (time range), the operation set, the
// object entity type, and optional entity-set constraints on the subject
// and object carried over from already-matched event patterns.
type EventFilter struct {
	// Agents restricts the spatial scope; empty means all agents.
	Agents []uint32
	// From/To restrict the temporal scope on event start time,
	// half-open [From, To); zero values leave the bound open.
	From, To int64
	// Ops restricts the operation; empty means any operation.
	Ops []sysmon.Operation
	// ObjType restricts the object entity type; EntityInvalid means any.
	ObjType sysmon.EntityType
	// Subjects/Objects restrict the endpoint entities; nil means
	// unconstrained, an empty set matches nothing.
	Subjects *IDSet
	Objects  *IDSet
	// MinAmount/MaxAmount bound the event's byte count to the closed
	// range [MinAmount, MaxAmount]; a zero end leaves that end open.
	MinAmount, MaxAmount uint64
}

// opSet returns a dense lookup table for the filter's operations, or nil
// when all operations pass.
func (f *EventFilter) opSet() *[sysmon.NumOperations]bool {
	if len(f.Ops) == 0 {
		return nil
	}
	var set [sysmon.NumOperations]bool
	for _, op := range f.Ops {
		if int(op) < sysmon.NumOperations {
			set[op] = true
		}
	}
	return &set
}

// agentSet returns a membership map for the filter's agents, or nil when
// all agents pass.
func (f *EventFilter) agentSet() map[uint32]struct{} {
	if len(f.Agents) == 0 {
		return nil
	}
	m := make(map[uint32]struct{}, len(f.Agents))
	for _, a := range f.Agents {
		m[a] = struct{}{}
	}
	return m
}

// matches reports whether ev passes every predicate of the filter, given
// precomputed op and agent sets (either may be nil = pass-all).
func (f *EventFilter) matches(ev *sysmon.Event, ops *[sysmon.NumOperations]bool, agents map[uint32]struct{}) bool {
	if agents != nil {
		if _, ok := agents[ev.AgentID]; !ok {
			return false
		}
	}
	if f.From != 0 && ev.StartTS < f.From {
		return false
	}
	if f.To != 0 && ev.StartTS >= f.To {
		return false
	}
	if ops != nil && !ops[ev.Op] {
		return false
	}
	if f.ObjType != sysmon.EntityInvalid && ev.ObjType != f.ObjType {
		return false
	}
	if !f.Subjects.Has(ev.Subject) {
		return false
	}
	if !f.Objects.Has(ev.Object) {
		return false
	}
	if f.MinAmount != 0 && ev.Amount < f.MinAmount {
		return false
	}
	if f.MaxAmount != 0 && ev.Amount > f.MaxAmount {
		return false
	}
	return true
}
