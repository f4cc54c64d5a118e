// Package ilp solves mixed 0-1 integer linear programmes with best-first
// branch and bound over the revised-simplex relaxation in internal/lp. It
// is the stand-in for the commercial ILP solver of the paper's §3.3; like
// the paper's experiments it supports a wall-clock time limit and reports
// whether the limit was hit (the paper's ">3000 s" entries).
//
// Branching never touches the constraint rows: a node tightens one binary
// variable's bounds (x fixed to 0 or 1), stored as a persistent diff chain
// back to the root, and each child re-solves from its parent's optimal
// basis via the solver's dual-simplex warm start. The row set is therefore
// invariant across the whole tree — a property the tests assert.
//
// Before the search starts, the problem goes through integer-aware LP
// presolve (lp.Presolve): fixed and dominated binaries are eliminated,
// singleton rows fold into bounds, and the branch and bound runs on the
// reduced problem. The incumbent is postsolved back to the full variable
// space, so callers never see the reduction (Result.X always has
// LP.NumVars entries; Result.LPRows reports the reduced row count).
//
// The search is deterministically parallel. Options.Workers > 1 adds
// speculative LP workers that pre-solve frontier nodes, but every decision
// — which node is expanded next, what is pruned, when an incumbent is
// recorded, every counter and event — is taken by a single decision loop
// in strict (bound, node-id) order. Node ids are assigned at creation, so
// the explored tree, Result.Nodes, Result.LPSolves, the ilp.nodes /
// ilp.incumbents counters, and the lp.* pivot counters are bit-identical
// at any worker count; only wall-clock time changes. Speculation is
// visible solely through the ilp.spec_solves / ilp.spec_wasted /
// ilp.basis_reuse scheduling diagnostics.
package ilp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"operon/internal/lp"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// Problem is a linear programme plus a set of variables restricted to {0,1}.
type Problem struct {
	// LP is the underlying relaxation; its Upper bounds must already cap the
	// binary variables at 1 (buildProgram does).
	LP lp.Problem
	// Binary lists variable indices constrained to {0,1}. Variables not
	// listed remain continuous and non-negative.
	Binary []int
}

// Validate checks structural consistency.
func (p Problem) Validate() error {
	if err := p.LP.Validate(); err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, v := range p.Binary {
		if v < 0 || v >= p.LP.NumVars {
			return fmt.Errorf("ilp: binary variable %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("ilp: binary variable %d listed twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Options tunes the search.
type Options struct {
	// Ctx, when non-nil, bounds the search: the node loop polls it once per
	// branch-and-bound node and the LP relaxations underneath poll it every
	// few pivots. Cancellation or an expired deadline ends the solve with
	// TimedOut set, returning the best incumbent found so far (the paper's
	// ">3000 s" semantics). A nil Ctx means context.Background().
	Ctx context.Context
	// MaxNodes bounds the number of branch-and-bound nodes; zero means
	// 200000.
	MaxNodes int
	// MaxTableauBytes caps the LP solver workspace (zero = lp default).
	// Oversized relaxations end the solve with TimedOut set.
	MaxTableauBytes int64
	// Workers sets the parallelism of the search: 1 solves every relaxation
	// inline on the decision thread (fully serial), W > 1 adds W-1
	// speculative workers that pre-solve frontier relaxations on cloned
	// solvers. Zero (or negative) means one worker per CPU. The explored
	// tree and all deterministic counters are identical at every value —
	// see the package comment for the contract.
	Workers int
	// Arena, when non-nil, supplies per-worker scratch (cloned solvers and
	// bound buffers) reused across Solve calls. An arena must not be shared
	// by concurrent Solve calls. Nil allocates fresh scratch per solve.
	Arena *parallel.Arena
	// Obs, when non-nil, receives an ilp/node event per branch-and-bound
	// node (depth, bound, warm-start pivot count), an ilp/incumbent event
	// per incumbent improvement, the ilp.nodes / ilp.incumbents counters,
	// and the lp.* counters of the relaxation engine underneath. Worker
	// speculation adds the ilp.spec_solves / ilp.spec_wasted diagnostics
	// (the only counters that may vary with Workers).
	Obs *obs.Tracer
}

// Status describes the outcome.
type Status int

const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means a feasible integer solution was found but optimality
	// was not proven before a limit was reached.
	Feasible
	// Infeasible means no integer solution exists.
	Infeasible
	// Limit means a limit was reached with no incumbent.
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "limit"
	}
}

// Result is the outcome of Solve.
type Result struct {
	// Status classifies the solve: Optimal, Feasible (incumbent under a
	// limit), Infeasible, or Limit (no incumbent before a budget ran out).
	Status Status
	// X is the best integral assignment found (length LP.NumVars); only
	// meaningful for Optimal and Feasible.
	X []float64
	// Objective is the objective value of X.
	Objective float64
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
	// Elapsed is the wall-clock time of the solve.
	Elapsed time.Duration
	// TimedOut reports that a budget — the context's deadline or
	// cancellation, or MaxNodes — stopped the search before optimality.
	TimedOut bool
	// LPSolves counts LP relaxations solved (root, nodes, and rounding
	// heuristics). Discarded speculative solves are not counted, keeping
	// the value identical across worker counts.
	LPSolves int
	// LPTime is the wall clock spent inside the LP solver on consumed
	// solves (diagnostic; with Workers > 1 solves overlap, so this can
	// exceed Elapsed).
	LPTime time.Duration
	// LPRows is the constraint-row count of the relaxation solver after
	// presolve; it is invariant across the branch-and-bound tree because
	// nodes are expressed purely as variable-bound changes.
	LPRows int
}

const intTol = 1e-6

// lpCounterNames are the relaxation-engine counters the search forwards
// from speculative workers to the caller's tracer in consumption order, so
// their totals match the serial solve exactly.
var lpCounterNames = [4]string{"lp.solves", "lp.pivots", "lp.bound_flips", "lp.refactors"}

// nodeDepth counts the bound tightenings between nd and the root — the
// node's depth in the branch-and-bound tree.
func nodeDepth(nd *bnode) int {
	d := 0
	for c := nd; c != nil; c = c.parent {
		if c.v >= 0 {
			d++
		}
	}
	return d
}

// Node lifecycle under speculation. Only nodePending nodes may be picked
// up by a worker; every other state is owned by whoever set it.
const (
	nodePending   int32 = iota // on the frontier, relaxation not started
	nodeClaimed                // decision loop solves (or has consumed) it
	nodeSolving                // a worker is speculatively solving it
	nodeDone                   // speculative result attached, awaiting consumption
	nodeDiscarded              // pruned; an in-flight result is dropped by its worker
)

// bnode is one branch-and-bound node: a single bound tightening relative
// to its parent (a persistent diff chain back to the root) plus the
// parent's optimal basis for the dual-simplex warm start.
type bnode struct {
	id     uint64  // creation order; ties in bound break toward lower id
	bound  float64 // parent relaxation objective: lower bound for the subtree
	v      int     // variable whose bounds this node tightens
	lo, up float64
	parent *bnode
	basis  *basisRef // parent's optimal basis (shared by both children)
	state  int32     // node lifecycle; guarded by search.mu when Workers > 1
	spec   *specResult
}

// basisRef wraps a basis snapshot with a reference count so the search can
// recycle the snapshot's slices once every holder (the creating node plus
// its two children) has consumed it. Steady-state branch and bound then
// keeps a small free pool of bases instead of allocating one per node.
type basisRef struct {
	b    lp.Basis
	refs int
}

// specResult is one speculative relaxation outcome produced by a worker:
// the solution, the child basis, and the worker-side lp.* counter deltas,
// folded into the real counters only when the decision loop consumes the
// node (so counter totals stay in serial order).
type specResult struct {
	sol    lp.Solution
	out    *basisRef
	err    error
	solves int // LP attempts, including the cold retry after ErrNumerical
	dur    time.Duration
	deltas [4]int64 // lpCounterNames deltas
}

// nodeQueue orders nodes by (bound, id): best lower bound first, creation
// order on ties. The id tiebreak makes extraction — and therefore the
// whole explored tree — independent of heap internals and worker count.
type nodeQueue []*bnode

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].id < q[j].id
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*bnode)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// search carries the state of one branch-and-bound run over the presolved
// problem. The decision loop owns everything except the fields documented
// as guarded by mu, which workers share.
type search struct {
	p        Problem // presolved (reduced) problem; Binary reindexed
	opt      Options
	offset   float64 // presolve objective offset, added to reported events
	ctx      context.Context
	lpOpt    lp.Options
	maxNodes int

	solver *lp.BoundedSolver
	res    Result

	rootLo, rootUp    []float64
	lo, up            []float64 // per-node scratch, decision thread only
	savedLo, savedUp  []float64
	nodeSol, roundSol *lp.Solution
	roundBasis        lp.Basis
	incumbent         []float64

	cNodes, cIncumbents, cBasisReuse *obs.Counter
	cSpecSolves, cSpecWasted         *obs.Counter
	cLP                              [4]*obs.Counter // lpCounterNames on the caller tracer

	pq     nodeQueue // decision frontier; decision thread only
	nextID uint64

	workers    int // speculative workers besides the decision thread
	specCancel context.CancelFunc
	workerDone chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	spec      nodeQueue // speculation frontier (lazy-deleted mirror of pq)
	specFree  []*specResult
	basisFree []*basisRef
	incObj    float64 // mirror of res.Objective for worker-side pruning
	closed    bool
}

// workerSpace is the per-worker scratch cached in a parallel.Scratch slot:
// a cloned solver (sharing the immutable problem matrices), bound buffers,
// and a private tracer whose counters supply the worker's lp.* deltas.
type workerSpace struct {
	src    *lp.BoundedSolver
	solver *lp.BoundedSolver
	lo, up []float64
	tracer *obs.Tracer
	ctr    [4]*obs.Counter
}

func (ws *workerSpace) prepare(s *search) {
	if ws.tracer == nil {
		ws.tracer = obs.New(nil)
		for i, name := range lpCounterNames {
			ws.ctr[i] = ws.tracer.Counter(name)
		}
	}
	if ws.src != s.solver {
		ws.src = s.solver
		ws.solver = s.solver.Clone()
	}
	n := len(s.rootLo)
	if cap(ws.lo) < n {
		ws.lo = make([]float64, n)
		ws.up = make([]float64, n)
	}
	ws.lo, ws.up = ws.lo[:n], ws.up[:n]
}

// Solve runs presolve and then deterministic (optionally parallel)
// best-first branch and bound on the reduced problem.
func Solve(p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	// One time-budget mechanism: the node loop and every LP relaxation
	// underneath observe the same context.
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	// Full-space root bounds: binaries capped at 1, continuous variables
	// keep the problem bounds.
	n := p.LP.NumVars
	fullUp := make([]float64, n)
	for i := range fullUp {
		if p.LP.Upper != nil {
			fullUp[i] = p.LP.Upper[i]
		} else {
			fullUp[i] = math.Inf(1)
		}
	}
	integer := make([]bool, n)
	for _, v := range p.Binary {
		integer[v] = true
		if fullUp[v] > 1 {
			fullUp[v] = 1
		}
	}

	// Integer-aware presolve: every reduction respects integrality (bounds
	// round inward, dominated binaries fix to 0), so a fully presolved
	// problem is already an optimal integral assignment.
	pre, err := lp.Presolve(p.LP, nil, fullUp, integer)
	if err != nil {
		return Result{}, err
	}
	if opt.Obs != nil {
		opt.Obs.Counter("lp.presolve_rows").Add(int64(pre.RowsRemoved))
		opt.Obs.Counter("lp.presolve_cols").Add(int64(pre.ColsRemoved))
	}
	cNodes := opt.Obs.Counter("ilp.nodes")
	cIncumbents := opt.Obs.Counter("ilp.incumbents")
	switch pre.Outcome {
	case lp.PresolveInfeasible:
		return Result{Status: Infeasible, Objective: math.Inf(1), Elapsed: time.Since(start)}, nil
	case lp.PresolveUnbounded:
		return Result{}, errors.New("ilp: relaxation unbounded")
	case lp.PresolveSolved:
		cNodes.Inc()
		cIncumbents.Inc()
		if opt.Obs != nil {
			opt.Obs.Event("ilp/node", obs.LaneFlow,
				obs.I("node", 1), obs.I("depth", 0),
				obs.F("bound", pre.Offset), obs.I("pivots", 0),
				obs.S("status", "optimal"))
			opt.Obs.Event("ilp/incumbent", obs.LaneFlow,
				obs.I("node", 1), obs.F("objective", pre.Offset))
		}
		return Result{
			Status: Optimal, X: pre.Postsolve(nil, nil), Objective: pre.Offset,
			Nodes: 1, Elapsed: time.Since(start),
		}, nil
	}

	// Branch and bound over the reduced problem.
	rp := Problem{LP: pre.P}
	for r, isInt := range pre.Integer {
		if isInt {
			rp.Binary = append(rp.Binary, r)
		}
	}
	solver, err := lp.NewBoundedSolver(pre.P)
	if err != nil {
		return Result{}, err
	}

	rn := pre.P.NumVars
	s := &search{
		p:        rp,
		opt:      opt,
		offset:   pre.Offset,
		ctx:      ctx,
		lpOpt:    lp.Options{Ctx: ctx, MaxTableauBytes: opt.MaxTableauBytes, Obs: opt.Obs},
		maxNodes: maxNodes,
		solver:   solver,
		res:      Result{Status: Limit, Objective: math.Inf(1), LPRows: solver.NumRows()},
		rootLo:   pre.Lo,
		rootUp:   pre.Up,
		lo:       make([]float64, rn),
		up:       make([]float64, rn),
		savedLo:  make([]float64, rn),
		savedUp:  make([]float64, rn),
		nodeSol:  &lp.Solution{},
		roundSol: &lp.Solution{},

		cNodes:      cNodes,
		cIncumbents: cIncumbents,
		cBasisReuse: opt.Obs.Counter("ilp.basis_reuse"),
		cSpecSolves: opt.Obs.Counter("ilp.spec_solves"),
		cSpecWasted: opt.Obs.Counter("ilp.spec_wasted"),

		workers: parallel.Workers(opt.Workers, maxNodes) - 1,
		incObj:  math.Inf(1),
	}
	for i, name := range lpCounterNames {
		s.cLP[i] = opt.Obs.Counter(name)
	}
	s.cond = sync.NewCond(&s.mu)

	if err := s.run(); err != nil {
		return Result{}, err
	}
	res := s.res
	if s.incumbent != nil {
		res.X = pre.Postsolve(s.incumbent, nil)
		res.Objective += pre.Offset
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// materialize rebuilds the decision thread's bound scratch for nd from the
// diff chain. Diffs along a root path touch distinct variables (a fixed
// binary is never branched again), so application order is irrelevant.
func (s *search) materialize(nd *bnode) {
	copy(s.lo, s.rootLo)
	copy(s.up, s.rootUp)
	for c := nd; c != nil; c = c.parent {
		if c.v >= 0 {
			s.lo[c.v], s.up[c.v] = c.lo, c.up
		}
	}
}

// relax solves the current bound scratch on the decision thread's solver,
// retrying cold once when a warm basis is numerically hopeless.
func (s *search) relax(warm *lp.Basis, sol *lp.Solution, out *lp.Basis) error {
	t0 := time.Now()
	err := s.solver.SolveBoundsInto(s.lo, s.up, warm, s.lpOpt, sol, out)
	s.res.LPSolves++
	if warm != nil && errors.Is(err, lp.ErrNumerical) {
		err = s.solver.SolveBoundsInto(s.lo, s.up, nil, s.lpOpt, sol, out)
		s.res.LPSolves++
	}
	s.res.LPTime += time.Since(t0)
	return err
}

// Basis snapshots are pooled: a node's snapshot is held by the node itself
// plus its two children, and returns to the free pool once all three
// release it. The pool is shared with speculative workers, so access goes
// through the search mutex.
func (s *search) newBasisRef() *basisRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newBasisRefLocked()
}

func (s *search) newBasisRefLocked() *basisRef {
	if n := len(s.basisFree); n > 0 {
		br := s.basisFree[n-1]
		s.basisFree = s.basisFree[:n-1]
		br.refs = 1
		s.cBasisReuse.Inc()
		return br
	}
	return &basisRef{refs: 1}
}

func (s *search) release(br *basisRef) {
	if br == nil {
		return
	}
	s.mu.Lock()
	s.releaseLocked(br)
	s.mu.Unlock()
}

func (s *search) releaseLocked(br *basisRef) {
	if br == nil {
		return
	}
	if br.refs--; br.refs == 0 {
		s.basisFree = append(s.basisFree, br)
	}
}

func (s *search) grabSpecLocked() *specResult {
	if n := len(s.specFree); n > 0 {
		sr := s.specFree[n-1]
		s.specFree = s.specFree[:n-1]
		return sr
	}
	return &specResult{}
}

func (s *search) recycleSpec(sr *specResult) {
	if sr == nil {
		return
	}
	s.mu.Lock()
	sr.out = nil
	sr.err = nil
	s.specFree = append(s.specFree, sr)
	s.mu.Unlock()
}

// record installs a new incumbent (decision thread only) and mirrors the
// objective for worker-side pruning.
func (s *search) record(x []float64, obj float64) {
	if obj >= s.res.Objective-1e-9 {
		return
	}
	s.incumbent = append(s.incumbent[:0], x...)
	s.res.Objective = obj
	s.cIncumbents.Inc()
	if s.workers > 0 {
		s.mu.Lock()
		s.incObj = obj
		s.mu.Unlock()
	}
	if s.opt.Obs != nil {
		s.opt.Obs.Event("ilp/incumbent", obs.LaneFlow,
			obs.I("node", s.res.Nodes), obs.F("objective", obj+s.offset))
	}
}

// fractionalVar returns the most fractional unfixed binary under the
// current bound scratch, or -1 when x is integral on all binaries.
func (s *search) fractionalVar(x []float64) int {
	branchVar, frac := -1, 0.0
	for _, v := range s.p.Binary {
		if s.lo[v] == s.up[v] {
			continue
		}
		f := math.Abs(x[v] - math.Round(x[v]))
		if f > intTol && f > frac {
			frac = f
			branchVar = v
		}
	}
	return branchVar
}

// tryRound fixes every binary to its rounded relaxation value and
// re-solves (warm-started); a feasible result seeds or improves the
// incumbent. The current lo/up scratch is saved and restored.
func (s *search) tryRound(x []float64, warm *lp.Basis) error {
	copy(s.savedLo, s.lo)
	copy(s.savedUp, s.up)
	for _, v := range s.p.Binary {
		if x[v] >= 0.5 {
			s.lo[v], s.up[v] = 1, 1
		} else {
			s.lo[v], s.up[v] = 0, 0
		}
	}
	err := s.relax(warm, s.roundSol, &s.roundBasis)
	copy(s.lo, s.savedLo)
	copy(s.up, s.savedUp)
	if err == nil && s.roundSol.Status == lp.Optimal {
		s.record(s.roundSol.X, s.roundSol.Objective)
	}
	if errors.Is(err, lp.ErrTooLarge) {
		err = nil
	}
	return err
}

func (s *search) nodeEvent(node, depth int, sol *lp.Solution, bound float64) {
	if s.opt.Obs == nil {
		return
	}
	s.opt.Obs.Event("ilp/node", obs.LaneFlow,
		obs.I("node", node), obs.I("depth", depth),
		obs.F("bound", bound+s.offset), obs.I("pivots", sol.Iterations),
		obs.S("status", sol.Status.String()))
}

// pushChildren creates both children of a branching, assigns their node
// ids, and publishes them to the decision frontier and (under speculation)
// the worker frontier.
func (s *search) pushChildren(parent *bnode, sol *lp.Solution, br *basisRef, branchVar int) {
	r := math.Round(sol.X[branchVar])
	s.mu.Lock()
	br.refs += 2
	for _, val := range []float64{r, 1 - r} {
		s.nextID++
		nd := &bnode{
			id:     s.nextID,
			bound:  sol.Objective,
			v:      branchVar,
			lo:     val,
			up:     val,
			parent: parent,
			basis:  br,
		}
		heap.Push(&s.pq, nd)
		if s.workers > 0 {
			heap.Push(&s.spec, nd)
		}
	}
	s.mu.Unlock()
	if s.workers > 0 {
		s.cond.Broadcast()
	}
}

// discard drops a pruned node, releasing its warm-start reference. Under
// speculation a worker may be mid-solve on the node; ownership of the
// releases then transfers to that worker (see speculate).
func (s *search) discard(nd *bnode) {
	if s.workers <= 0 {
		s.release(nd.basis)
		return
	}
	s.mu.Lock()
	switch nd.state {
	case nodeSolving:
		nd.state = nodeDiscarded // the worker frees the basis and result
	case nodeDone:
		sr := nd.spec
		nd.spec = nil
		nd.state = nodeDiscarded
		s.releaseLocked(sr.out)
		s.releaseLocked(nd.basis)
		sr.out = nil
		sr.err = nil
		s.specFree = append(s.specFree, sr)
		s.cSpecWasted.Inc()
	default:
		nd.state = nodeDiscarded
		s.releaseLocked(nd.basis)
	}
	s.mu.Unlock()
}

// resolveNode produces the relaxation of nd: either by consuming a
// speculative result (folding the worker's counters in consumption order)
// or by solving inline on the decision thread. The returned specResult is
// non-nil when the solution aliases pooled worker memory and must be
// recycled after use.
func (s *search) resolveNode(nd *bnode) (*lp.Solution, *basisRef, *specResult, error) {
	if s.workers > 0 {
		s.mu.Lock()
		for nd.state == nodeSolving {
			s.cond.Wait()
		}
		if nd.state == nodeDone {
			sr := nd.spec
			nd.spec = nil
			nd.state = nodeClaimed
			s.mu.Unlock()
			for i, c := range s.cLP {
				c.Add(sr.deltas[i])
			}
			s.res.LPSolves += sr.solves
			s.res.LPTime += sr.dur
			s.release(nd.basis) // warm start consumed by the worker
			return &sr.sol, sr.out, sr, sr.err
		}
		nd.state = nodeClaimed
		s.mu.Unlock()
	}
	childRef := s.newBasisRef()
	err := s.relax(&nd.basis.b, s.nodeSol, &childRef.b)
	s.release(nd.basis) // warm start consumed
	return s.nodeSol, childRef, nil, err
}

// processNode expands one popped node. It returns stop=true when a
// resource limit ends the whole search.
func (s *search) processNode(nd *bnode) (stop bool, err error) {
	s.materialize(nd)
	sol, childRef, sr, err := s.resolveNode(nd)
	defer s.recycleSpec(sr)
	if errors.Is(err, lp.ErrTooLarge) {
		s.res.TimedOut = true
		return true, nil
	}
	if err != nil {
		return false, err
	}
	bound := nd.bound
	if sol.Status == lp.Optimal {
		bound = sol.Objective
	}
	s.nodeEvent(s.res.Nodes, nodeDepth(nd), sol, bound)
	if sol.Status != lp.Optimal {
		s.release(childRef)
		return false, nil // infeasible or numerically stuck subtree
	}
	if sol.Objective >= s.res.Objective-1e-9 {
		s.release(childRef)
		return false, nil
	}
	branchVar := s.fractionalVar(sol.X)
	if branchVar < 0 {
		// Integral: incumbent.
		s.record(sol.X, sol.Objective)
		s.release(childRef)
		return false, nil
	}
	if s.incumbent == nil {
		if err := s.tryRound(sol.X, &childRef.b); err != nil {
			return false, err
		}
	}
	s.pushChildren(nd, sol, childRef, branchVar)
	s.release(childRef)
	return false, nil
}

// run executes the root relaxation and the decision loop. All search
// decisions happen here, on one goroutine, in (bound, id) order — workers
// only pre-compute LP results the loop would otherwise solve inline.
func (s *search) run() error {
	copy(s.lo, s.rootLo)
	copy(s.up, s.rootUp)
	rootRef := s.newBasisRef()
	err := s.relax(nil, s.nodeSol, &rootRef.b)
	if errors.Is(err, lp.ErrTooLarge) {
		// The relaxation alone exceeds the memory budget; report a limit so
		// callers fall back, mirroring the paper's ">3000 s" outcomes.
		s.res.TimedOut = true
		return nil
	}
	if err != nil {
		return err
	}
	s.res.Nodes = 1
	s.cNodes.Inc()
	s.nodeEvent(1, 0, s.nodeSol, s.nodeSol.Objective)
	switch s.nodeSol.Status {
	case lp.Infeasible:
		s.res.Status = Infeasible
		return nil
	case lp.Unbounded:
		return errors.New("ilp: relaxation unbounded")
	case lp.IterLimit:
		s.res.TimedOut = true
		return nil
	}

	rootBranch := s.fractionalVar(s.nodeSol.X)
	if rootBranch < 0 {
		// Integral root: proven optimal without branching.
		s.record(s.nodeSol.X, s.nodeSol.Objective)
		s.res.Status = Optimal
		return nil
	}
	// Round the root relaxation immediately so even a solve that hits its
	// limit before the first branch completes reports an incumbent when
	// one is that easy to find (affects how ">limit" rows are reported).
	if err := s.tryRound(s.nodeSol.X, &rootRef.b); err != nil {
		return err
	}

	heap.Init(&s.pq)
	s.pushChildren(nil, s.nodeSol, rootRef, rootBranch)
	s.release(rootRef)

	s.startWorkers()
	defer s.stopWorkers()

	for s.pq.Len() > 0 {
		s.res.Nodes++
		s.cNodes.Inc()
		if s.res.Nodes > s.maxNodes {
			s.res.TimedOut = true
			break
		}
		if s.ctx.Err() != nil {
			s.res.TimedOut = true
			break
		}
		nd := heap.Pop(&s.pq).(*bnode)
		if nd.bound >= s.res.Objective-1e-9 {
			s.discard(nd) // pruned by incumbent
			continue
		}
		stop, err := s.processNode(nd)
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}

	if s.incumbent != nil {
		if s.res.TimedOut || s.pq.Len() > 0 && s.pq[0].bound < s.res.Objective-1e-9 {
			s.res.Status = Feasible
		} else {
			s.res.Status = Optimal
		}
	} else if !s.res.TimedOut {
		s.res.Status = Infeasible
	}
	return nil
}

// startWorkers launches the speculative workers (no-op when Workers <= 1).
// parallel.ForEachScratchContext blocks until every worker returns, so it
// runs on its own goroutine; stopWorkers closes the frontier and waits.
func (s *search) startWorkers() {
	if s.workers <= 0 {
		return
	}
	sctx, cancel := context.WithCancel(s.ctx)
	s.specCancel = cancel
	s.workerDone = make(chan struct{})
	w := s.workers
	go func() {
		defer close(s.workerDone)
		parallel.ForEachScratchContext(context.Background(), s.opt.Arena, w, w,
			func(worker int, sc *parallel.Scratch, _ int) error {
				s.runWorker(sctx, sc)
				return nil
			})
	}()
}

func (s *search) stopWorkers() {
	if s.workers <= 0 || s.workerDone == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.specCancel() // abort in-flight speculative pivot loops
	<-s.workerDone
	s.specCancel = nil
	s.workerDone = nil
}

// runWorker is one speculative worker: repeatedly pop the best pending
// frontier node and pre-solve its relaxation. Results never change search
// decisions — the decision loop consumes them in its own order.
func (s *search) runWorker(ctx context.Context, sc *parallel.Scratch) {
	ws := sc.Get("ilp", func() any { return &workerSpace{} }).(*workerSpace)
	ws.prepare(s)
	lpOpt := lp.Options{Ctx: ctx, MaxTableauBytes: s.opt.MaxTableauBytes, Obs: ws.tracer}
	for {
		s.mu.Lock()
		var nd *bnode
		for nd == nil && !s.closed {
			for s.spec.Len() > 0 {
				top := s.spec[0]
				// Lazy deletion: skip nodes already claimed, solved, or
				// discarded, and nodes the incumbent will prune (incObj only
				// decreases, so a prunable node stays prunable).
				if top.state != nodePending || top.bound >= s.incObj-1e-9 {
					heap.Pop(&s.spec)
					continue
				}
				nd = heap.Pop(&s.spec).(*bnode)
				break
			}
			if nd == nil && !s.closed {
				s.cond.Wait()
			}
		}
		if nd == nil {
			s.mu.Unlock()
			return
		}
		nd.state = nodeSolving
		sr := s.grabSpecLocked()
		s.mu.Unlock()
		s.speculate(ws, lpOpt, nd, sr)
	}
}

// speculate solves nd's relaxation on the worker's cloned solver,
// replicating the decision thread's cold-retry policy bit for bit, and
// publishes the result — unless the node was discarded mid-solve, in which
// case the worker owns the cleanup (the decision loop has already moved
// on and must not race on the basis pool).
func (s *search) speculate(ws *workerSpace, lpOpt lp.Options, nd *bnode, sr *specResult) {
	copy(ws.lo, s.rootLo)
	copy(ws.up, s.rootUp)
	for c := nd; c != nil; c = c.parent {
		if c.v >= 0 {
			ws.lo[c.v], ws.up[c.v] = c.lo, c.up
		}
	}
	var before [4]int64
	for i, c := range ws.ctr {
		before[i] = c.Value()
	}
	out := s.newBasisRef()
	t0 := time.Now()
	err := ws.solver.SolveBoundsInto(ws.lo, ws.up, &nd.basis.b, lpOpt, &sr.sol, &out.b)
	sr.solves = 1
	if errors.Is(err, lp.ErrNumerical) {
		err = ws.solver.SolveBoundsInto(ws.lo, ws.up, nil, lpOpt, &sr.sol, &out.b)
		sr.solves = 2
	}
	sr.dur = time.Since(t0)
	sr.err = err
	sr.out = out
	for i, c := range ws.ctr {
		sr.deltas[i] = c.Value() - before[i]
	}

	s.mu.Lock()
	if nd.state == nodeDiscarded {
		s.releaseLocked(nd.basis)
		s.releaseLocked(out)
		sr.out = nil
		sr.err = nil
		s.specFree = append(s.specFree, sr)
		s.cSpecWasted.Inc()
		s.mu.Unlock()
		return
	}
	if s.closed {
		s.releaseLocked(out)
		sr.out = nil
		sr.err = nil
		s.specFree = append(s.specFree, sr)
		s.cSpecWasted.Inc()
		s.mu.Unlock()
		return
	}
	nd.spec = sr
	nd.state = nodeDone
	s.cSpecSolves.Inc()
	s.mu.Unlock()
	s.cond.Broadcast()
}
