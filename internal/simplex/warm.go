package simplex

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/tol"
)

// Basis is an immutable snapshot of an optimal simplex basis: the
// status of every structural and slack column plus the basic column of
// every row. It deliberately excludes two things the tableau also
// carries:
//
//   - the basis inverse — at m² floats it would dominate the branch &
//     bound queue's memory budget, and SolveFrom rebuilds it with one
//     refactorization anyway, and
//   - the artificial columns — their orientation depends on the initial
//     residuals of the solve that produced them, so a snapshot that
//     included one would not be reinstallable; Solver.Basis returns nil
//     in the (degenerate) case where an artificial is still basic.
//
// A Basis holds no reference to the tableau or model it came from: it
// can outlive both, be shared by any number of concurrent SolveFrom
// calls, and be applied to any model with the same shape (variable and
// row counts, senses, coefficients) under different bounds — which is
// exactly the parent→child relationship in branch & bound.
type Basis struct {
	n, m    int
	status  []varStatus
	basicIn []int32
}

// MemBytes returns the approximate heap footprint of the snapshot, for
// callers that meter queue memory (the branch & bound node queue charges
// each node's basis against Budget.MemoryBytes).
func (b *Basis) MemBytes() int64 {
	if b == nil {
		return 0
	}
	return int64(48 + cap(b.status) + 4*cap(b.basicIn))
}

// Basis returns a snapshot of the optimal basis left behind by the
// Solver's most recent solve, or nil when no warm-startable basis is
// available: the last solve did not end StatusOptimal, or an artificial
// column is still basic (possible only in degenerate cases). The
// snapshot is independent of the Solver and remains valid across its
// subsequent solves.
func (s *Solver) Basis() *Basis {
	t := &s.t
	if !t.lastOptimal {
		return nil
	}
	n, m := t.nStruct, t.m
	for r := 0; r < m; r++ {
		if int(t.basicIn[r]) >= n+m {
			return nil
		}
	}
	b := &Basis{
		n:       n,
		m:       m,
		status:  make([]varStatus, n+m),
		basicIn: make([]int32, m),
	}
	copy(b.status, t.status[:n+m])
	copy(b.basicIn, t.basicIn)
	return b
}

// ExtendRows returns a copy of the snapshot extended for a model with k
// extra rows appended after the ones it was taken from — the cut-round
// case, where each round appends freshly separated cut rows to the root
// LP. The new rows' slacks enter the basis in their own rows, so the
// extended basis matrix is block lower triangular
//
//	[ B  0 ]
//	[ C  I ]
//
// (B the old basis, C the cut-row coefficients of the old basic
// columns) and therefore nonsingular whenever B was. Because the new
// slacks carry zero cost, the old duals and reduced costs are
// unchanged: the extension is dual feasible by construction, and
// SolveFrom's dual-simplex restoration drives the (cut-violating) new
// slacks back inside their bounds — the textbook cut re-solve. Slack
// column indices survive the extension unchanged (structurals come
// first in the column layout), so old statuses copy over verbatim.
// A nil receiver or k ≤ 0 returns the receiver.
func (b *Basis) ExtendRows(k int) *Basis {
	if b == nil || k <= 0 {
		return b
	}
	nb := &Basis{
		n:       b.n,
		m:       b.m + k,
		status:  make([]varStatus, b.n+b.m+k),
		basicIn: make([]int32, b.m+k),
	}
	copy(nb.status[:b.n+b.m], b.status)
	copy(nb.basicIn[:b.m], b.basicIn)
	for i := 0; i < k; i++ {
		nb.status[b.n+b.m+i] = basic
		nb.basicIn[b.m+i] = int32(b.n + b.m + i)
	}
	return nb
}

// SolveFrom solves the continuous relaxation of model starting from an
// inherited basis instead of a cold two-phase start. The intended use
// is branch & bound: basis came from the parent node's optimal LP and
// model differs from the parent only in variable bounds, so the basis
// stays dual feasible (costs and coefficients are unchanged) and a few
// dual-simplex pivots restore primal feasibility — phase 1 is skipped
// entirely.
//
// The warm path is an optimization, never an oracle: whenever the basis
// is stale (wrong shape, invalid statuses under the child bounds,
// singular after refactorization) or dual restoration fails to reach
// primal feasibility, SolveFrom discards it and re-runs the cold
// two-phase path, so the result is exactly what Solve would have
// produced. A nil basis degrades to Solve.
func (s *Solver) SolveFrom(model *lp.Model, basis *Basis) (*lp.Solution, error) {
	return s.solve(nil, model, basis)
}

// SolveFromContext is SolveFrom with cancellation (see SolveContext).
// A nil ctx is treated as context.Background().
func (s *Solver) SolveFromContext(ctx context.Context, model *lp.Model, basis *Basis) (*lp.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.solve(ctx, model, basis)
}

// TryWarm attempts the warm path from basis WITHOUT the cold fallback
// SolveFrom would run on a stale basis: ok=false means the basis could
// not be restored here (wrong shape, invalid statuses under the current
// bounds, singular, no column able to repair an infeasible row — the
// child is then usually LP-infeasible — or the restoration pivot cap)
// and no two-phase solve ran. What the abandoned restore did spend is
// excluded from the returned and folded pivot counts exactly as on
// SolveFrom's miss path, and reported instead as
// simplex.warm_abandoned_pivots (and simplex.warm_stale_cap when the
// cap stopped it).
//
// The intended caller is a heuristic (the branch & bound dive) that
// would rather abandon the subproblem than pay a full cold solve its
// budget never accounted for: a failed warm start must cost its
// detection, not a duplicated solve. A nil basis reports ok=false
// immediately.
func (s *Solver) TryWarm(model *lp.Model, basis *Basis) (sol *lp.Solution, ok bool, err error) {
	if basis == nil {
		return nil, false, nil
	}
	if err := model.Err(); err != nil {
		return nil, false, fmt.Errorf("simplex: invalid model: %w", err)
	}
	if model.NumVars() == 0 {
		return nil, false, nil
	}
	if err := s.t.reset(model, &s.opts); err != nil {
		return nil, false, err
	}
	s.t.ctx = nil
	sol, done, err := s.t.solveWarm(basis)
	if !done {
		t := &s.t
		t.warmMisses = 1
		t.warmAbandoned, t.iters, t.dualPivots = t.dualPivots, 0, 0
	}
	s.t.foldMetrics()
	if err != nil || !done {
		return nil, false, err
	}
	return sol, true, nil
}

// solveWarm attempts the warm path from basis b on the freshly reset
// tableau. done reports that the attempt produced a final outcome
// (solution or error) and the caller must not run the cold path; done
// false means the basis was stale and the caller should restart cold.
func (t *tableau) solveWarm(b *Basis) (sol *lp.Solution, done bool, err error) {
	if !t.installBasis(b) {
		return nil, false, nil
	}
	out, err := t.dualRestore()
	if err != nil {
		return nil, true, err
	}
	switch out {
	case restoreStale:
		return nil, false, nil
	case restoreLimit:
		return &lp.Solution{Status: lp.StatusIterLimit, Iterations: t.iters, Limit: t.limit}, true, nil
	}
	t.warmHits = 1
	t.p1Skipped = 1
	sol, err = t.finishPhase2()
	return sol, true, err
}

// installBasis loads snapshot b into the tableau under the *current*
// model's bounds: nonbasic columns snap to the child's (possibly
// tightened) bounds, artificials are frozen nonbasic at zero, and the
// basis inverse is rebuilt by one refactorization. It reports false —
// leaving the tableau for the caller to reset — whenever the snapshot
// cannot be a valid basis here: shape mismatch, a bound status pointing
// at an infinite bound, an inconsistent basic set, or a singular basis
// matrix.
func (t *tableau) installBasis(b *Basis) bool {
	n, m := t.nStruct, t.m
	if b == nil || b.n != n || b.m != m || len(b.status) != n+m || len(b.basicIn) != m {
		return false
	}
	for r := 0; r < m; r++ {
		a := n + m + r
		t.lower[a], t.upper[a] = 0, 0
		t.status[a] = atLower
		t.value[a] = 0
		t.inRow[a] = -1
	}
	for j := 0; j < n+m; j++ {
		st := b.status[j]
		switch st {
		case basic:
			// Membership in basicIn is validated below.
		case atLower:
			if math.IsInf(t.lower[j], -1) {
				return false
			}
			t.value[j] = t.lower[j]
		case atUpper:
			if math.IsInf(t.upper[j], 1) {
				return false
			}
			t.value[j] = t.upper[j]
		case freeAtZero:
			if !math.IsInf(t.lower[j], -1) || !math.IsInf(t.upper[j], 1) {
				return false
			}
			t.value[j] = 0
		default:
			return false
		}
		t.status[j] = st
		t.inRow[j] = -1
	}
	for r := 0; r < m; r++ {
		j := b.basicIn[r]
		if j < 0 || int(j) >= n+m || t.status[j] != basic {
			return false
		}
		if t.inRow[j] >= 0 {
			return false // duplicate basic column
		}
		t.basicIn[r] = j
		t.inRow[j] = int32(r)
	}
	for j := 0; j < n+m; j++ {
		if t.status[j] == basic && t.inRow[j] < 0 {
			return false
		}
	}
	// Rebuild Binv and the basic values from the installed basis. A
	// singular basis under the child's data means the snapshot is stale.
	if err := t.refactorize(); err != nil {
		return false
	}
	return true
}

// dualOutcome is the verdict of dualRestore.
type dualOutcome int

const (
	// restoreOK: the basis is primal feasible; phase 2 may run.
	restoreOK dualOutcome = iota
	// restoreStale: restoration failed (no eligible column, pivot cap);
	// the caller falls back to the cold path for the authoritative
	// verdict — the child LP may genuinely be infeasible.
	restoreStale
	// restoreLimit: a solve-wide limit (iterations, deadline) fired;
	// t.limit names the cause and the caller surrenders as the cold
	// path would.
	restoreLimit
)

// dualRestore runs a bounded dual simplex from the installed basis
// until every basic variable is back inside its bounds. The inherited
// basis is dual feasible for the child (the cost vector and constraint
// matrix match the parent's solve exactly; only bounds moved), and every
// iteration keeps it so:
//
//   - the leaving row r is the most violated basic bound;
//   - one BTRAN gives ρ_r, and the pivot row α_r = ρ_rᵀA comes from the
//     CSR pass (pivotRowAlphas), touching only rows where ρ_r is nonzero;
//   - a Harris two-pass, bound-flipping ratio test (dualRatioTest) picks
//     the entering column and the boxed columns whose breakpoints the
//     dual step passes; those flip to their opposite bound together, and
//     their combined column costs one FTRAN to update x_B;
//   - reduced costs, computed exactly once up front, are updated from
//     α_r (d_j −= θ·α_rj) instead of being re-priced.
//
// Only basis changes count against the cap and as iterations; flips are
// part of the iteration that takes the dual step. Dual feasibility is an
// efficiency argument here, not a correctness dependency: whatever basis
// restoration ends on, finishPhase2 runs primal simplex to optimality
// proven from exact reduced costs, and a degenerate or cycling restore
// is caught by the cap and surrendered to the cold path.
func (t *tableau) dualRestore() (dualOutcome, error) {
	n, m := t.nStruct, t.m
	t.phase = 2
	t.pricedCost = t.cost
	t.recomputeDj()
	t.flipCol = reuseF64(t.flipCol, m)
	// A child differs from its parent by a few bounds, so restoration
	// should take a handful of basis changes; the cap bounds the cost of
	// a degenerate or cycling case before surrendering to the cold path.
	maxPivots := 100 + 2*m
	for {
		// Leaving row: the most-violated basic bound.
		r, toUpper, infeas := -1, false, t.opts.FeasTol
		for i := 0; i < m; i++ {
			bi := t.basicIn[i]
			if v := t.lower[bi] - t.xB[i]; v > infeas {
				r, toUpper, infeas = i, false, v
			}
			if v := t.xB[i] - t.upper[bi]; v > infeas {
				r, toUpper, infeas = i, true, v
			}
		}
		if r < 0 {
			return restoreOK, nil
		}
		if t.dualPivots >= maxPivots {
			t.warmStaleCap++
			return restoreStale, nil
		}
		if t.iters >= t.opts.MaxIters {
			t.limit = lp.LimitIterations
			return restoreLimit, nil
		}
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				return 0, fmt.Errorf("simplex: canceled after %d iterations: %w", t.iters, err)
			}
		}
		if !t.opts.Deadline.IsZero() && time.Now().After(t.opts.Deadline) {
			t.limit = lp.LimitWallClock
			return restoreLimit, nil
		}
		// Restoration can run past the sparse engine's eta-file cap;
		// collapse the file on the same trigger the pivot loop uses. A
		// singular basis mid-restore means the snapshot went stale.
		if t.la != nil && t.la.etas.count() >= t.opts.RefactorEvery {
			if err := t.refactorize(); err != nil {
				return restoreStale, nil
			}
		}

		// Leaving to the upper bound the dual step θ is ≥ 0, to the lower
		// bound ≤ 0; sgn carries that sign so the ratio test sees t = |θ|.
		p := t.basicIn[r]
		target, leaveStatus, sgn := t.lower[p], atLower, -1.0
		if toUpper {
			target, leaveStatus, sgn = t.upper[p], atUpper, 1.0
		}
		t.pivotRowAlphas(t.binvRow(r))
		q, step := t.dualRatioTest(sgn, infeas)
		if q < 0 {
			// No column can repair the violation: the child LP is primal
			// infeasible, or the basis is numerically useless. The cold
			// path delivers the authoritative verdict either way.
			return restoreStale, nil
		}
		t.applyFlips()
		t.ftran(q)
		w := t.workCol // w[r] equals α_rq: both are row r of B⁻¹A_q
		if math.Abs(w[r]) < tol.Pivot {
			// The row and the column disagree on a usable pivot: the
			// factors have drifted too far to trust this basis.
			return restoreStale, nil
		}

		// Dual step: d_j −= θ·α_rj over the pivot row; the leaving column
		// picks up −θ (its α is 1), the entering one drops to 0.
		theta := sgn * step
		for _, jc := range t.alphaNZ {
			j := int(jc)
			if j >= n+m || j == q || t.status[j] == basic {
				continue
			}
			t.dj[j] -= theta * t.alpha[j]
		}
		t.dj[p] = -theta
		t.dj[q] = 0
		t.djExact = false

		// Primal step: the entering column moves until the leaving basic
		// variable sits exactly on its violated bound.
		t.iters++
		t.dualPivots++
		thetaP := (t.xB[r] - target) / w[r]
		for i := 0; i < m; i++ {
			if !tol.IsZero(w[i]) {
				t.xB[i] -= thetaP * w[i]
				t.value[t.basicIn[i]] = t.xB[i]
			}
		}
		enterVal := t.value[q] + thetaP
		t.value[p] = target
		t.status[p] = leaveStatus
		t.inRow[p] = -1
		t.basicIn[r] = int32(q)
		t.inRow[q] = int32(r)
		t.status[q] = basic
		t.value[q] = enterVal
		t.xB[r] = enterVal
		t.updateBasisLA(r, w)
	}
}

// dualSlack returns nonbasic column j's signed distance from dual
// infeasibility (d_j at its lower bound, −d_j at its upper; 0 for a free
// column, which any dual step makes infeasible) and the rate |α_rj| at
// which a dual step of sign sgn consumes it. A zero rate means the step
// moves d_j away from infeasibility, or j cannot enter at all (basic,
// fixed, artificial, or a pivot below tol.Pivot).
func (t *tableau) dualSlack(j int, sgn float64) (slack, rate float64) {
	if j >= t.nStruct+t.m || t.priceSkip(j) {
		return 0, 0
	}
	a := sgn * t.alpha[j]
	if math.Abs(a) < tol.Pivot {
		return 0, 0
	}
	switch t.status[j] {
	case atLower:
		if a > 0 {
			return t.dj[j], a
		}
	case atUpper:
		if a < 0 {
			return -t.dj[j], -a
		}
	case freeAtZero:
		return 0, math.Abs(a)
	}
	return 0, 0
}

// dualRatioTest is the Harris two-pass, bound-flipping ratio test over
// the pivot row in t.alpha/t.alphaNZ for a dual step of sign sgn out of
// a leaving row that is infeas outside its bound (Fourer 1994;
// Koberstein 2005, §3.1.3). Each round of passes works on the remaining
// breakpoints: pass 1 bounds the step by the smallest breakpoint widened
// by the dual tolerance, pass 2 takes, among the breakpoints inside that
// bound, the largest |α_rj| (then the lowest index). While every column
// in the round is boxed and flipping them all still leaves the row
// infeasible by more than FeasTol (the dual objective's slope stays
// positive), the round's columns are queued in t.flips and the test
// moves on past them. It
// returns the entering column and the step length |θ| (clipped at 0
// when Harris' tolerance admits a slightly wrong-signed d_q), or -1 when
// the breakpoints run out: the row cannot be repaired.
func (t *tableau) dualRatioTest(sgn, infeas float64) (enter int, step float64) {
	tolD := t.opts.OptTol
	cand := t.dualCand[:0]
	for _, jc := range t.alphaNZ {
		if _, rate := t.dualSlack(int(jc), sgn); rate > 0 {
			cand = append(cand, jc)
		}
	}
	t.flips = t.flips[:0]
	slope := infeas
	enter = -1
	for len(cand) > 0 {
		bound := math.Inf(1)
		for _, jc := range cand {
			slack, rate := t.dualSlack(int(jc), sgn)
			bound = math.Min(bound, (slack+tolD)/rate)
		}
		q, qRate, passed, boxed := -1, 0.0, 0.0, true
		for _, jc := range cand {
			j := int(jc)
			slack, rate := t.dualSlack(j, sgn)
			if slack/rate > bound {
				continue
			}
			if q < 0 || rate > qRate || (tol.Same(rate, qRate) && j < q) {
				q, qRate = j, rate
			}
			if rng := t.upper[j] - t.lower[j]; math.IsInf(rng, 1) {
				boxed = false
			} else {
				passed += rng * rate
			}
		}
		if !boxed || slope-passed <= t.opts.FeasTol {
			slack, _ := t.dualSlack(q, sgn)
			t.dualCand = cand
			return q, math.Max(slack/qRate, 0)
		}
		// Every breakpoint in the round is passed: flip those columns and
		// keep going with the rest.
		slope -= passed
		keep := cand[:0]
		for _, jc := range cand {
			if slack, rate := t.dualSlack(int(jc), sgn); slack/rate <= bound {
				t.flips = append(t.flips, jc)
			} else {
				keep = append(keep, jc)
			}
		}
		cand = keep
	}
	t.dualCand = cand
	return -1, 0
}

// applyFlips moves every column dualRatioTest queued in t.flips to its
// opposite bound and updates the basic values for all of them with one
// FTRAN of their combined column: Δx_B = −B⁻¹·Σ A_j·Δx_j.
func (t *tableau) applyFlips() {
	if len(t.flips) == 0 {
		return
	}
	a := t.flipCol
	for _, jc := range t.flips {
		j := int(jc)
		delta := t.upper[j] - t.lower[j]
		if t.status[j] == atUpper {
			t.value[j], t.status[j] = t.lower[j], atLower
			delta = -delta
		} else {
			t.value[j], t.status[j] = t.upper[j], atUpper
		}
		c := t.cols[j]
		for k, r := range c.rows {
			a[r] += c.coefs[k] * delta
		}
	}
	t.ftranVec(a)
	for i, v := range a {
		if !tol.IsZero(v) {
			t.xB[i] -= v
			t.value[t.basicIn[i]] = t.xB[i]
		}
		a[i] = 0
	}
}

// ftranVec overwrites v with B⁻¹·v: one FTRAN on the sparse engine, an
// explicit inverse-times-vector (into the t.workCol scratch) on the
// dense one.
func (t *tableau) ftranVec(v []float64) {
	if t.la != nil {
		t.la.ftran(v)
		return
	}
	m := t.m
	out := t.workCol
	for i := 0; i < m; i++ {
		s := 0.0
		for k, b := range t.binv[i*m : (i+1)*m] {
			if !tol.IsZero(b) {
				s += b * v[k]
			}
		}
		out[i] = s
	}
	copy(v, out)
}
