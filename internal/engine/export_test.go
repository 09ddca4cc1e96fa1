package engine

import (
	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/eventstore"
)

// PlannedFilters binds params into a prepared multievent statement and
// returns the storage filter the planner compiles for each pattern, in
// syntactic pattern order.
func PlannedFilters(e *Engine, p *Prepared, params Params) ([]eventstore.EventFilter, error) {
	bound, err := p.Bind(params)
	if err != nil {
		return nil, err
	}
	plan, err := e.buildPlanFixed(e.store.Snapshot(), bound.(*ast.MultieventQuery), p.order)
	if err != nil {
		return nil, err
	}
	out := make([]eventstore.EventFilter, len(plan.patterns))
	for _, pp := range plan.patterns {
		out[pp.idx] = pp.filter
	}
	return out, nil
}
