package milp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp/cuts"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/resilience/faultinject"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// Budget bounds a solve beyond Options.TimeLimit and Options.MaxNodes.
// Hitting it is a graceful stop, like hitting those two: the best
// incumbent is surrendered with its certified gap, Status
// lp.StatusNodeLimit, and Solution.Limit naming the dimension that
// tripped. The zero value imposes no extra bound.
type Budget struct {
	// MemoryBytes caps the estimated memory held by *open* nodes (the
	// frontier queue — the only part of the search whose footprint grows
	// without bound). 0 means no memory budget. The estimate counts node
	// structs and their bound-change lists, not the fixed per-worker
	// model clones.
	MemoryBytes int64
}

// Options control a branch & bound solve. The zero value applies
// defaults suitable for the planner's models.
type Options struct {
	// GapTol is the relative optimality gap at which the search stops.
	// Default tol.Gap (effectively exact).
	GapTol float64
	// MaxNodes caps explored nodes. Default 200000.
	MaxNodes int
	// TimeLimit caps wall-clock time; 0 means no limit. Hitting it is a
	// graceful stop: the best incumbent is returned with Status
	// lp.StatusNodeLimit and no error (contrast with context
	// cancellation, which returns an error). When the context passed to
	// SolveContext also carries a deadline, the earlier of the two wins,
	// and the terminal status is deterministic: a context deadline that
	// is strictly earlier than the option limit always yields
	// lp.StatusCanceled with context.DeadlineExceeded, while an option
	// limit at or before the context deadline always yields the graceful
	// lp.StatusNodeLimit — regardless of scheduling jitter at expiry.
	TimeLimit time.Duration
	// Budget bounds the open-node memory; see Budget.
	Budget Budget
	// PerturbSeed, when nonzero, deterministically permutes the order
	// integer variables are scanned for branching (and therefore the
	// whole tree shape). The fallback pipeline uses it to retry a failed
	// solve on a different — but replayable — search trajectory. 0 keeps
	// the natural model order.
	PerturbSeed int64
	// Inject, when non-nil, arms the deterministic fault-injection
	// harness (worker panics, forced deadline expiry) and is handed down
	// to the per-worker simplex engines for their own sites. Production
	// callers leave it nil.
	Inject *faultinject.Injector
	// DisableDiving turns off the diving primal heuristic.
	DisableDiving bool
	// WarmStarts are candidate feasible points (len = model variables)
	// supplied by the caller; each feasible one seeds the incumbent
	// before search begins. Infeasible candidates are ignored.
	WarmStarts [][]float64
	// ReuseBasis warm-starts each node LP from its parent's optimal
	// basis (simplex.Solver.SolveFrom): the child differs from the
	// parent by one variable bound, so a few dual-simplex pivots replace
	// a full two-phase solve. Off by default — on a degenerate node LP
	// the warm path can stop at a different vertex of the same optimal
	// face than the cold path, steering branching onto a different
	// (equally valid) trajectory, and the default must stay byte-stable
	// for golden traces. Either way the certified objective agrees
	// within GapTol, and at Workers=1 each setting is individually
	// deterministic. Correctness never depends on the warm path: any
	// stale or singular basis falls back to the cold two-phase solve
	// inside the simplex layer.
	ReuseBasis bool
	// MaxDiveDepth bounds the diving heuristic's fixing passes.
	// Default 200.
	MaxDiveDepth int
	// DisablePresolve turns off the bound-tightening presolve pass.
	DisablePresolve bool
	// Trace, when non-nil, receives structured solve events: solve
	// start/end, incumbent installs, global-bound improvements, plus the
	// per-LP phase events from the simplex layer (the tracer is handed
	// down to the node-LP engines). Events are totally ordered by the
	// tracer; at Workers=1 the stream is deterministic.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the solve's counters and gauges
	// (nodes, per-worker node counts, incumbents, bound improvements,
	// wall/work time) and is handed down to the simplex engines for
	// their pivot counters. Production callers leave both nil: every
	// instrumentation site is then a single pointer comparison.
	Metrics *obs.Metrics
	// Cuts configures root-node cutting planes (Gomory mixed-integer +
	// knapsack covers; see internal/milp/cuts). Off by default: the
	// default search trajectory must stay byte-stable for golden traces.
	// Cut separation runs sequentially at the root before workers fan
	// out, so the cut set is identical at any worker count; every
	// accepted cut is re-verified against the stash of known
	// integer-feasible points (warm starts, incumbent) and a violation
	// is a hard solver error. The incumbent path never depends on cuts:
	// tryAccept verifies candidate points against the cut-free model, so
	// a wrong cut could only weaken the bound side, never certify an
	// infeasible plan.
	Cuts cuts.Options
	// Kernel configures the kernel-search primal heuristic (see
	// kernel.go): after the root LP (and cut rounds), restricted MILPs
	// over the LP support plus best-reduced-cost buckets are solved
	// under a node budget to seed the shared incumbent early. Off by
	// default for the same byte-stability reason.
	Kernel KernelOptions
	// Workers is the number of branch & bound worker goroutines that
	// pull nodes from the shared best-bound queue. 0 selects
	// runtime.NumCPU(). Workers=1 runs the fully sequential search and
	// is bit-for-bit deterministic (identical node and iteration counts
	// across runs). Any worker count yields the same certified objective
	// within GapTol; see the package documentation's determinism
	// argument.
	Workers int
	// Simplex carries options for the LP subproblems.
	Simplex simplex.Options
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.GapTol <= 0 {
		out.GapTol = tol.Gap
	}
	if out.MaxNodes <= 0 {
		out.MaxNodes = 200000
	}
	if out.MaxDiveDepth <= 0 {
		out.MaxDiveDepth = 200
	}
	if out.Workers <= 0 {
		out.Workers = runtime.NumCPU()
	}
	return out
}

// boundChange is one tightened bound along a branch.
type boundChange struct {
	v      lp.VarID
	lo, hi float64
}

// node is one open branch & bound node.
type node struct {
	bound   float64 // parent LP objective: lower bound for the subtree
	changes []boundChange
	depth   int
	seq     int // FIFO tie-break so the claim order is total
	// basis is the parent LP's optimal basis (shared by both siblings;
	// a Basis is immutable), set only under Options.ReuseBasis. nil
	// means the node LP starts cold.
	basis *simplex.Basis
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if !tol.Same(q[i].bound, q[j].bound) {
		return q[i].bound < q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Solve runs branch & bound on the model. Variables marked Binary or
// Integer are enforced integral; continuous variables are free to take
// fractional values. The returned solution's Gap field reports the final
// relative optimality gap (0 when proven optimal).
func Solve(model *lp.Model, opts *Options) (*lp.Solution, error) {
	return SolveContext(context.Background(), model, opts)
}

// SolveContext is Solve with cancellation. The context is observed
// between nodes; on cancellation the returned solution carries the best
// incumbent found so far (Status lp.StatusCanceled, X nil when no
// incumbent exists) alongside ctx.Err(), so callers can salvage a
// partial result. A nil ctx is treated as context.Background().
func SolveContext(ctx context.Context, model *lp.Model, opts *Options) (*lp.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := model.Err(); err != nil {
		return nil, fmt.Errorf("milp: invalid model: %w", err)
	}
	o := opts.withDefaults()
	c := newCoordinator(ctx, o, model.Clone())
	// The kernel heuristic launches recursive restricted solves and needs
	// the full context, not just the Err-polling subset.
	c.goCtx = ctx
	for j := 0; j < model.NumVars(); j++ {
		if model.Var(lp.VarID(j)).Type != lp.Continuous {
			c.intVars = append(c.intVars, lp.VarID(j))
		}
	}
	if o.PerturbSeed != 0 {
		// Deterministically re-seed the branching order: ties in the
		// most-fractional rule resolve to different variables, steering
		// the search onto a different — but replayable — trajectory.
		rng := rand.New(rand.NewSource(o.PerturbSeed))
		rng.Shuffle(len(c.intVars), func(i, j int) {
			c.intVars[i], c.intVars[j] = c.intVars[j], c.intVars[i]
		})
	}
	// The working models are continuous; integrality is enforced by
	// branching. Presolve tightens the shared model's bounds (used for
	// incumbent verification) before the workers clone it.
	if !o.DisablePresolve {
		if _, infeasible := presolve(c.model, 10); infeasible {
			return &lp.Solution{Status: lp.StatusInfeasible}, nil
		}
	}
	// Unify the option wall limit with the context deadline: the
	// earlier wins, and *which* source is earlier decides the terminal
	// status up front (StatusNodeLimit for the option limit,
	// StatusCanceled for a strictly earlier context deadline), so expiry
	// races cannot flip the outcome between runs.
	if o.TimeLimit > 0 {
		c.deadline = c.start.Add(o.TimeLimit)
	}
	if ctxDeadline, ok := ctx.Deadline(); ok {
		if c.deadline.IsZero() || ctxDeadline.Before(c.deadline) {
			c.deadline = ctxDeadline
			c.deadlineIsCtx = true
		}
	}
	c.memLimit = o.Budget.MemoryBytes
	if !c.deadline.IsZero() {
		// Per-worker simplex engines observe the same wall deadline, so a
		// single long node LP cannot overrun the solve-wide budget.
		c.opts.Simplex.Deadline = c.deadline
	}
	if o.Inject != nil {
		// Hand the harness down so the simplex sites (pivot, corrupt,
		// stall) fire inside node LPs too, and let it report firings to
		// the observability layer when one is armed.
		c.opts.Simplex.Inject = o.Inject
		if o.Trace != nil || o.Metrics != nil {
			o.Inject.Observe(o.Trace, o.Metrics)
		}
	}
	// Hand observability down the same way: node LPs fold their pivot
	// counters and phase events into the solve-wide tracer/registry.
	c.opts.Simplex.Trace = o.Trace
	c.opts.Simplex.Metrics = o.Metrics
	if o.Trace != nil {
		o.Trace.Emit(obs.Event{
			Kind: obs.KindSolveStart, Name: model.Name,
			Detail: fmt.Sprintf("rows=%d cols=%d int=%d workers=%d",
				model.NumRows(), model.NumVars(), len(c.intVars), o.Workers),
		})
	}
	sol, err := c.solve()
	c.emitSolveEnd(sol, err)
	c.foldMetrics(sol)
	return sol, err
}
