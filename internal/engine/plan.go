package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// patternPlan is the executable form of one event pattern: the storage
// filter it scans with, the candidate entity sets implied by its attribute
// filters, per-event predicates, and the optimizer's match estimate.
type patternPlan struct {
	idx      int // position in the query's syntactic order
	alias    string
	subjVar  string
	objVar   string
	objType  sysmon.EntityType
	filter   eventstore.EventFilter
	subjSet  *eventstore.IDSet // nil = unconstrained
	objSet   *eventstore.IDSet
	evtPreds []evtPred
	estimate int
}

// evtPred is a compiled event-attribute predicate (agentid, amount, ...).
type evtPred struct {
	attr string
	op   ast.CmpOp
	num  float64
	str  string
	strP *like.Pattern
}

func (p *evtPred) eval(ev *sysmon.Event) bool {
	var numVal float64
	var strVal string
	isNum := true
	switch p.attr {
	case "id":
		numVal = float64(ev.ID)
	case "agentid", "agent_id":
		numVal = float64(ev.AgentID)
	case "amount":
		numVal = float64(ev.Amount)
	case "seq":
		numVal = float64(ev.Seq)
	case "starttime", "start_time":
		numVal = float64(ev.StartTS)
	case "endtime", "end_time":
		numVal = float64(ev.EndTS)
	case "optype", "op":
		isNum = false
		strVal = ev.Op.String()
	default:
		return false
	}
	if isNum {
		switch p.op {
		case ast.CmpEQ:
			return numVal == p.num
		case ast.CmpNEQ:
			return numVal != p.num
		case ast.CmpLT:
			return numVal < p.num
		case ast.CmpLE:
			return numVal <= p.num
		case ast.CmpGT:
			return numVal > p.num
		case ast.CmpGE:
			return numVal >= p.num
		default:
			return false
		}
	}
	switch p.op {
	case ast.CmpEQ:
		return strings.EqualFold(strVal, p.str)
	case ast.CmpNEQ:
		return !strings.EqualFold(strVal, p.str)
	case ast.CmpLike:
		return p.strP.Match(strVal)
	default:
		return false
	}
}

// queryPlan is the scheduled execution plan for a multievent query.
type queryPlan struct {
	patterns []*patternPlan // in scheduled order
	rels     []ast.TemporalRel
	window   ast.TimeWindow
}

// compileEvtPred turns an AST event filter into a predicate.
func compileEvtPred(f ast.Filter) evtPred {
	p := evtPred{attr: f.Attr, op: f.Op}
	if f.Val.IsNum {
		p.num = f.Val.Num
	} else {
		p.str = f.Val.Str
		p.strP = like.Compile(f.Val.Str)
		// numeric attrs given as strings still compare numerically
		if n, err := strconv.ParseFloat(f.Val.Str, 64); err == nil {
			p.num = n
		}
	}
	return p
}

// entityCandidates evaluates an entity reference's attribute filters
// against the dictionary, returning the candidate ID set (nil when the
// reference is unconstrained).
func (e *Engine) entityCandidates(ref *ast.EntityRef) (*eventstore.IDSet, error) {
	if len(ref.Filters) == 0 {
		return nil, nil
	}
	dict := e.store.Dict()
	var set *eventstore.IDSet
	for i := range ref.Filters {
		f := &ref.Filters[i]
		if f.Val.Param != "" {
			return nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
		}
		attr, ok := sysmon.CanonicalAttr(ref.Type, f.Attr)
		if !ok {
			return nil, fmt.Errorf("engine: entity %q has no attribute %q", ref.Name, f.Attr)
		}
		cur, err := e.cachedEntityMatch(dict, ref, attr, f)
		if err != nil {
			return nil, err
		}
		set = set.Intersect(cur)
	}
	return set, nil
}

// entityMatchKey identifies one attribute filter's resolution; together
// with the dictionary identity and per-type entity count it fully
// determines the resolved ID set.
type entityMatchKey struct {
	typ   sysmon.EntityType
	attr  string
	op    ast.CmpOp
	str   string
	num   float64
	isNum bool
}

// entityMatchEntry is one memoized resolution. The entry is valid while
// the same dictionary still holds exactly n entities of the filter's
// type: entity tables are append-only with immutable entries, so an
// unchanged count guarantees an unchanged match set. The set is shared
// and must be treated as read-only (Intersect copies).
type entityMatchEntry struct {
	dict *eventstore.Dictionary
	n    int
	set  *eventstore.IDSet
}

// entityMatchCap bounds the resolution memo; the population is one
// entry per distinct attribute filter across live queries, so the cap
// exists only to survive adversarial query streams.
const entityMatchCap = 512

// cachedEntityMatch resolves one attribute filter against the entity
// dictionary, memoizing by filter + dictionary + entity count. Standing
// queries re-evaluate after every ingest commit; when a commit touched
// only events (or entities of other types), the wildcard re-scan of the
// dictionary — linear in interned entities — is skipped entirely, which
// keeps post-ingest re-evaluation proportional to the fresh delta.
func (e *Engine) cachedEntityMatch(dict *eventstore.Dictionary, ref *ast.EntityRef, attr string, f *ast.Filter) (*eventstore.IDSet, error) {
	key := entityMatchKey{typ: ref.Type, attr: attr, op: f.Op, str: f.Val.Str, num: f.Val.Num, isNum: f.Val.IsNum}
	// the count is read before resolving: interns racing the resolution
	// can only make the resolved set larger than the recorded count
	// admits, which future lookups see as a stale count — a miss, never
	// a wrong hit
	n := dict.Count(ref.Type)
	e.resolveMu.Lock()
	if ent, ok := e.resolved[key]; ok && ent.dict == dict && ent.n == n {
		e.resolveMu.Unlock()
		return ent.set, nil
	}
	e.resolveMu.Unlock()
	cur, err := matchEntityFilter(dict, ref, attr, f)
	if err != nil {
		return nil, err
	}
	e.resolveMu.Lock()
	if e.resolved == nil {
		e.resolved = make(map[entityMatchKey]entityMatchEntry)
	} else if len(e.resolved) >= entityMatchCap {
		e.resolved = make(map[entityMatchKey]entityMatchEntry)
	}
	e.resolved[key] = entityMatchEntry{dict: dict, n: n, set: cur}
	e.resolveMu.Unlock()
	return cur, nil
}

// matchEntityFilter is the uncached resolution of one attribute filter.
func matchEntityFilter(dict *eventstore.Dictionary, ref *ast.EntityRef, attr string, f *ast.Filter) (*eventstore.IDSet, error) {
	switch f.Op {
	case ast.CmpLike:
		return dict.MatchEntities(ref.Type, attr, like.Compile(f.Val.Str)), nil
	case ast.CmpEQ:
		if f.Val.IsNum {
			return matchNumeric(dict, ref.Type, attr, f.Op, f.Val.Num), nil
		}
		return dict.MatchEntities(ref.Type, attr, like.Compile(f.Val.Str)), nil
	case ast.CmpNEQ:
		if f.Val.IsNum {
			return matchNumeric(dict, ref.Type, attr, f.Op, f.Val.Num), nil
		}
		pat := like.Compile(f.Val.Str)
		return matchPredicate(dict, ref.Type, attr, func(v string) bool { return !pat.Match(v) }), nil
	default: // numeric comparisons
		num := f.Val.Num
		if !f.Val.IsNum {
			n, err := strconv.ParseFloat(f.Val.Str, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: attribute %s.%s compared with non-numeric value %q", ref.Name, attr, f.Val.Str)
			}
			num = n
		}
		return matchNumeric(dict, ref.Type, attr, f.Op, num), nil
	}
}

func matchPredicate(dict *eventstore.Dictionary, t sysmon.EntityType, attr string, pred func(string) bool) *eventstore.IDSet {
	out := eventstore.NewIDSet()
	n := dict.Count(t)
	for i := 1; i <= n; i++ {
		if pred(dict.Attr(t, sysmon.EntityID(i), attr)) {
			out.Add(sysmon.EntityID(i))
		}
	}
	return out
}

func matchNumeric(dict *eventstore.Dictionary, t sysmon.EntityType, attr string, op ast.CmpOp, num float64) *eventstore.IDSet {
	return matchPredicate(dict, t, attr, func(v string) bool {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return false
		}
		switch op {
		case ast.CmpEQ:
			return x == num
		case ast.CmpNEQ:
			return x != num
		case ast.CmpLT:
			return x < num
		case ast.CmpLE:
			return x <= num
		case ast.CmpGT:
			return x > num
		case ast.CmpGE:
			return x >= num
		}
		return false
	})
}

// buildPlan compiles every pattern of a multievent query into a pattern
// plan and schedules them against one store snapshot. Scheduling follows
// the paper's two insights: patterns with higher pruning power (lower
// match estimates) run first, and each scan is confined to the
// spatial/temporal partitions implied by the global constraints.
// Estimates are only computed when something consumes them — the
// scheduler (two or more patterns with reordering on) or an explain —
// so single-pattern queries skip the per-unit estimation walk entirely.
func (e *Engine) buildPlan(snap *eventstore.Snapshot, q *ast.MultieventQuery) (*queryPlan, error) {
	needEstimates := len(q.Patterns) > 1 && !e.cfg.DisableReordering
	return e.buildPlanEstimates(snap, q, needEstimates)
}

func (e *Engine) buildPlanEstimates(snap *eventstore.Snapshot, q *ast.MultieventQuery, needEstimates bool) (*queryPlan, error) {
	plan, err := e.compilePatterns(snap, q, needEstimates)
	if err != nil {
		return nil, err
	}
	e.schedule(plan)
	return plan, nil
}

// buildPlanFixed compiles the patterns and applies a previously computed
// scheduling order (pattern indices in execution sequence) instead of
// re-scheduling — the execute-many half of a prepared statement: no
// pruning-power estimates are computed at all.
func (e *Engine) buildPlanFixed(snap *eventstore.Snapshot, q *ast.MultieventQuery, order []int) (*queryPlan, error) {
	plan, err := e.compilePatterns(snap, q, false)
	if err != nil {
		return nil, err
	}
	orderPlan(plan, order)
	return plan, nil
}

// orderPlan reorders the pattern plans to the given sequence of original
// pattern indices. A mismatched order (defensive; cannot happen for a
// plan compiled from the template the order came from) leaves the
// syntactic order in place.
func orderPlan(plan *queryPlan, order []int) {
	if len(order) != len(plan.patterns) {
		return
	}
	byIdx := make(map[int]*patternPlan, len(plan.patterns))
	for _, pp := range plan.patterns {
		byIdx[pp.idx] = pp
	}
	ordered := make([]*patternPlan, 0, len(order))
	for _, idx := range order {
		pp, ok := byIdx[idx]
		if !ok {
			return
		}
		ordered = append(ordered, pp)
		delete(byIdx, idx)
	}
	plan.patterns = ordered
}

func (e *Engine) compilePatterns(snap *eventstore.Snapshot, q *ast.MultieventQuery, needEstimates bool) (*queryPlan, error) {
	plan := &queryPlan{}
	if q.Head_.Window != nil {
		if q.Head_.Window.HasParams() {
			return nil, fmt.Errorf("engine: time window carries unbound parameters; prepare the query and bind them before executing")
		}
		plan.window = *q.Head_.Window
	}
	globalAgents, globalPreds, err := splitGlobals(q.Head_.Globals)
	if err != nil {
		return nil, err
	}
	// index temporal relations; event-attribute with-conditions fold into
	// their pattern's predicate list
	perEventConds := map[string][]ast.Filter{}
	for _, w := range q.With {
		switch c := w.(type) {
		case ast.TemporalRel:
			plan.rels = append(plan.rels, c)
		case ast.EventCond:
			perEventConds[c.Event] = append(perEventConds[c.Event], ast.Filter{
				Attr: c.Attr, Op: c.Op, Val: c.Val, Pos: c.Pos,
			})
		}
	}
	for i := range q.Patterns {
		pat := &q.Patterns[i]
		pp := &patternPlan{
			idx:     i,
			alias:   pat.Alias,
			subjVar: pat.Subject.Name,
			objVar:  pat.Object.Name,
			objType: pat.Object.Type,
		}
		pp.filter = eventstore.EventFilter{
			From:    plan.window.From,
			To:      plan.window.To,
			ObjType: pat.Object.Type,
			Agents:  append([]uint32{}, globalAgents...),
		}
		for _, op := range pat.Ops {
			o, ok := sysmon.ParseOperation(op)
			if !ok {
				return nil, fmt.Errorf("engine: unknown operation %q", op)
			}
			pp.filter.Ops = append(pp.filter.Ops, o)
		}
		pp.subjSet, err = e.entityCandidates(&pat.Subject)
		if err != nil {
			return nil, err
		}
		pp.objSet, err = e.entityCandidates(&pat.Object)
		if err != nil {
			return nil, err
		}
		pp.filter.Subjects = pp.subjSet
		pp.filter.Objects = pp.objSet
		pp.evtPreds = append(pp.evtPreds, globalPreds...)
		evtFilters := append(append([]ast.Filter{}, pat.EvtFilters...), perEventConds[pat.Alias]...)
		for _, f := range evtFilters {
			if f.Val.Param != "" {
				return nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
			}
			// agent equality narrows the spatial scope directly
			if (f.Attr == "agentid" || f.Attr == "agent_id") && f.Op == ast.CmpEQ {
				if a, ok := filterAgent(f); ok {
					pp.filter.Agents = append(pp.filter.Agents, a)
					continue
				}
			}
			pp.evtPreds = append(pp.evtPreds, compileEvtPred(f))
		}
		// Estimates are taken before the bounds below are pushed, so
		// scheduling — and with it the emission order of a streamed
		// result — is the same with or without them.
		if needEstimates {
			pp.estimate = snap.EstimateMatches(&pp.filter)
		}
		for k := range pp.evtPreds {
			pushBound(&pp.filter, &pp.evtPreds[k])
		}
		plan.patterns = append(plan.patterns, pp)
	}
	e.schedule(plan)
	return plan, nil
}

// splitGlobals separates global constraints into an agent list (spatial
// pruning) and residual event predicates.
func splitGlobals(globals []ast.Filter) ([]uint32, []evtPred, error) {
	var agents []uint32
	var preds []evtPred
	for _, f := range globals {
		if f.Val.Param != "" {
			return nil, nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
		}
		if (f.Attr == "agentid" || f.Attr == "agent_id") && f.Op == ast.CmpEQ {
			if a, ok := filterAgent(f); ok {
				agents = append(agents, a)
				continue
			}
		}
		preds = append(preds, compileEvtPred(f))
	}
	return agents, preds, nil
}

// pushBound narrows a storage filter with a necessary condition of one
// compiled event predicate, so the scan kernel rejects what the
// predicate would reject before a survivor is gathered: amount
// comparisons become the filter's amount range, start-time comparisons
// intersect its [From, To) slice. The predicate itself stays in the
// pattern's evtPreds as the exact residual, so a bound only has to
// admit every event the predicate admits. Where no such bound can be
// expressed — NaN, a threshold outside the search range, an end that
// would land on a filter's zero sentinel — nothing is pushed.
func pushBound(f *eventstore.EventFilter, p *evtPred) {
	var isAmount bool
	switch p.attr {
	case "amount":
		isAmount = true
	case "starttime", "start_time":
	default:
		return
	}
	lo, hi, ok := intRange(p.op, p.num)
	if !ok {
		return
	}
	if isAmount {
		if lo > 0 && uint64(lo) > f.MinAmount {
			f.MinAmount = uint64(lo)
		}
		if hi > 0 && hi < math.MaxInt64 && (f.MaxAmount == 0 || uint64(hi) < f.MaxAmount) {
			f.MaxAmount = uint64(hi)
		}
		return
	}
	if lo != math.MinInt64 && lo != 0 && (f.From == 0 || lo > f.From) {
		f.From = lo
	}
	if hi != math.MaxInt64 && hi+1 != 0 && (f.To == 0 || hi+1 < f.To) {
		f.To = hi + 1
	}
}

// intRange returns the closed range [lo, hi] of the integers v for
// which float64(v) op x holds — the comparison evtPred.eval makes for
// an integer attribute — with math.MinInt64/math.MaxInt64 standing for
// an open end. ok is false when the comparison yields no range (NaN,
// |x| ≥ 2^62, or an operator other than <, <=, >, >=, =).
func intRange(op ast.CmpOp, x float64) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case ast.CmpGT:
		lo, ok = firstInt(x, true)
	case ast.CmpGE:
		lo, ok = firstInt(x, false)
	case ast.CmpLT:
		hi, ok = firstInt(x, false)
		hi--
	case ast.CmpLE:
		hi, ok = firstInt(x, true)
		hi--
	case ast.CmpEQ:
		lo, ok = firstInt(x, false)
		hi, _ = firstInt(x, true)
		hi--
	}
	return lo, hi, ok
}

// firstInt returns the smallest int64 v with float64(v) > x (strict) or
// float64(v) >= x. The conversion rounds to nearest and is monotone, so
// the answer is the threshold of a binary search; below 2^62 rounding
// moves a value by at most 256, so a window of ±1024 around trunc(x)
// always holds it. That covers fractional thresholds (> 2.5 and >= 2.5
// both start at 3) as well as integers above 2^53, where consecutive
// values share one float. ok is false for NaN and |x| ≥ 2^62.
func firstInt(x float64, strict bool) (int64, bool) {
	const limit = 1 << 62
	if math.IsNaN(x) || x <= -limit || x >= limit {
		return 0, false
	}
	base := int64(x) - 1024
	n := sort.Search(2048, func(i int) bool {
		v := float64(base + int64(i))
		if strict {
			return v > x
		}
		return v >= x
	})
	return base + int64(n), true
}

func filterAgent(f ast.Filter) (uint32, bool) {
	if f.Val.IsNum {
		if f.Val.Num >= 0 && f.Val.Num == float64(uint32(f.Val.Num)) {
			return uint32(f.Val.Num), true
		}
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(f.Val.Str, "agent-"), 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// schedule orders the pattern plans. The optimized strategy runs the most
// selective pattern first and then greedily picks, among patterns sharing
// an entity variable with what has already run (to keep joins connected),
// the one with the lowest estimate. Reordering can be disabled for the
// ablation experiment, leaving syntactic order.
func (e *Engine) schedule(plan *queryPlan) {
	if e.cfg.DisableReordering || len(plan.patterns) <= 1 {
		return
	}
	remaining := append([]*patternPlan{}, plan.patterns...)
	sort.SliceStable(remaining, func(i, j int) bool { return remaining[i].estimate < remaining[j].estimate })

	bound := map[string]bool{}
	var ordered []*patternPlan
	pick := func(k int) {
		p := remaining[k]
		remaining = append(remaining[:k], remaining[k+1:]...)
		ordered = append(ordered, p)
		bound[p.subjVar] = true
		bound[p.objVar] = true
	}
	pick(0)
	for len(remaining) > 0 {
		chosen := -1
		for k, p := range remaining {
			if bound[p.subjVar] || bound[p.objVar] {
				chosen = k
				break
			}
		}
		if chosen < 0 {
			chosen = 0 // disconnected component: fall back to global minimum
		}
		pick(chosen)
	}
	plan.patterns = ordered
}
