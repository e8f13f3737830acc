package simplex

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
)

// branchLike tightens one variable's bounds the way branch & bound
// would: fix it toward one side of its current optimal value.
func branchLike(m *lp.Model, sol *lp.Solution, rng *rand.Rand) {
	j := rng.Intn(m.NumVars())
	v := m.Var(lp.VarID(j))
	x := sol.X[j]
	if rng.Intn(2) == 0 {
		hi := math.Floor(x)
		if hi < v.Lower {
			hi = v.Lower
		}
		m.SetBounds(lp.VarID(j), v.Lower, hi)
	} else {
		lo := math.Ceil(x)
		if lo > v.Upper {
			lo = v.Upper
		}
		m.SetBounds(lp.VarID(j), lo, v.Upper)
	}
}

// TestWarmSolveFromMatchesCold solves random parent LPs cold, branches
// a bound, and checks that the warm-started child solve agrees with an
// independent cold solve of the same child on status and objective.
func TestWarmSolveFromMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	warmSolves, hits := 0, int64(0)
	for trial := 0; trial < 300; trial++ {
		parent := randomBoxLP(rng)
		warm := NewSolver(nil)
		psol, err := warm.Solve(parent)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if psol.Status != lp.StatusOptimal {
			continue
		}
		basis := warm.Basis()
		if basis == nil {
			continue
		}
		child := parent.Clone()
		branchLike(child, psol, rng)

		met := obs.NewMetrics()
		warmOpts := Options{Metrics: met}
		ws := NewSolver(&warmOpts)
		got, err := ws.SolveFrom(child, basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		want, err := Solve(child, nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v", trial, got.Status, want.Status)
		}
		if got.Status == lp.StatusOptimal {
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-6*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("trial %d: warm objective %v, cold %v (diff %g)", trial, got.Objective, want.Objective, diff)
			}
		}
		warmSolves++
		h, miss := met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses)
		if h+miss != 1 {
			t.Fatalf("trial %d: warm_hits %d + warm_misses %d != 1", trial, h, miss)
		}
		if h == 1 && met.Counter(obs.MetricSimplexPhase1Skipped) != 1 {
			t.Fatalf("trial %d: hit without phase1_skipped", trial)
		}
		if h == 1 && met.Counter(obs.MetricSimplexPhase1) != 0 {
			t.Fatalf("trial %d: hit but phase-1 pivots were counted", trial)
		}
		if met.Counter(obs.MetricSimplexPivots) != int64(got.Iterations) {
			t.Fatalf("trial %d: folded pivots %d != solution iterations %d",
				trial, met.Counter(obs.MetricSimplexPivots), got.Iterations)
		}
		hits += h
	}
	if warmSolves < 100 {
		t.Fatalf("only %d warm solves exercised; generator too restrictive", warmSolves)
	}
	if hits == 0 {
		t.Fatal("no warm hits across all trials; warm path never engaged")
	}
}

// TestWarmNilBasisEqualsSolve: SolveFrom with a nil basis must behave
// exactly like Solve, down to the pivot count.
func TestWarmNilBasisEqualsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := randomBoxLP(rng)
		a, err := NewSolver(nil).SolveFrom(m, nil)
		if err != nil {
			t.Fatalf("SolveFrom: %v", err)
		}
		b, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if a.Status != b.Status || a.Iterations != b.Iterations || a.Objective != b.Objective {
			t.Fatalf("trial %d: nil-basis SolveFrom (%v, %d iters, obj %v) != Solve (%v, %d iters, obj %v)",
				trial, a.Status, a.Iterations, a.Objective, b.Status, b.Iterations, b.Objective)
		}
	}
}

// TestWarmResolveSameModelSkipsPhase1: re-solving the very model that
// produced the basis is the ideal warm start — zero restoration work,
// phase 1 skipped, same objective to the bit.
func TestWarmResolveSameModelSkipsPhase1(t *testing.T) {
	m := lp.NewModel("eqge")
	x := m.AddContinuous("x", 0, math.Inf(1), 2)
	y := m.AddContinuous("y", 0, math.Inf(1), 3)
	m.AddRow("sum", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 10)
	m.AddRow("diff", []lp.Term{{Var: y, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, 2)

	s := NewSolver(nil)
	cold, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != lp.StatusOptimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	basis := s.Basis()
	if basis == nil {
		t.Fatal("no basis after optimal solve")
	}

	met := obs.NewMetrics()
	ws := NewSolver(&Options{Metrics: met})
	warm, err := ws.SolveFrom(m, basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != lp.StatusOptimal || warm.Objective != cold.Objective {
		t.Fatalf("warm (%v, %v) != cold (%v, %v)", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if met.Counter(obs.MetricSimplexWarmHits) != 1 {
		t.Fatalf("warm_hits = %d, want 1", met.Counter(obs.MetricSimplexWarmHits))
	}
	if met.Counter(obs.MetricSimplexPhase1Skipped) != 1 {
		t.Fatal("phase1_skipped not recorded")
	}
	if met.Counter(obs.MetricSimplexPhase1) != 0 {
		t.Fatal("phase-1 pivots recorded on a warm hit")
	}
	if warm.Iterations != 0 {
		t.Fatalf("re-solve from own optimal basis took %d pivots, want 0", warm.Iterations)
	}
}

// TestWarmStaleBasisFallsBack: a basis of the wrong shape must be
// rejected and the solve must fall back to the cold path, counted as a
// miss, with the cold answer.
func TestWarmStaleBasisFallsBack(t *testing.T) {
	small := lp.NewModel("small")
	a := small.AddContinuous("a", 0, 2, -1)
	small.AddRow("r", []lp.Term{{Var: a, Coef: 1}}, lp.LE, 1)
	s := NewSolver(nil)
	if _, err := s.Solve(small); err != nil {
		t.Fatal(err)
	}
	stale := s.Basis()
	if stale == nil {
		t.Fatal("no basis from donor model")
	}

	big := lp.NewModel("big")
	x := big.AddContinuous("x", 0, 3, -1)
	y := big.AddContinuous("y", 0, 3, -2)
	big.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)

	met := obs.NewMetrics()
	ws := NewSolver(&Options{Metrics: met})
	sol, err := ws.SolveFrom(big, stale)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("fallback result (%v, %v), want optimal -7", sol.Status, sol.Objective)
	}
	if met.Counter(obs.MetricSimplexWarmMisses) != 1 || met.Counter(obs.MetricSimplexWarmHits) != 0 {
		t.Fatalf("warm_misses = %d, warm_hits = %d, want 1/0",
			met.Counter(obs.MetricSimplexWarmMisses), met.Counter(obs.MetricSimplexWarmHits))
	}
}

// TestWarmInfeasibleChild: when the branched child is LP-infeasible the
// warm path cannot prove it — restoration finds no eligible column and
// the cold path must deliver the infeasibility verdict.
func TestWarmInfeasibleChild(t *testing.T) {
	m := lp.NewModel("par")
	x := m.AddContinuous("x", 0, 5, 1)
	y := m.AddContinuous("y", 0, 5, 1)
	m.AddRow("need", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 6)
	s := NewSolver(nil)
	psol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if psol.Status != lp.StatusOptimal {
		t.Fatalf("parent status = %v", psol.Status)
	}
	basis := s.Basis()

	child := m.Clone()
	child.SetBounds(x, 0, 1)
	child.SetBounds(y, 0, 1) // x+y >= 6 now impossible

	sol, err := NewSolver(nil).SolveFrom(child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("child status = %v, want infeasible", sol.Status)
	}
}

// TestWarmBasisAvailability: Basis must return nil when the last solve
// did not end at an optimal basis.
func TestWarmBasisAvailability(t *testing.T) {
	infeas := lp.NewModel("infeas")
	x := infeas.AddContinuous("x", 0, 5, 1)
	infeas.AddRow("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 10)
	s := NewSolver(nil)
	if _, err := s.Solve(infeas); err != nil {
		t.Fatal(err)
	}
	if s.Basis() != nil {
		t.Fatal("Basis() non-nil after infeasible solve")
	}

	unb := lp.NewModel("unb")
	u := unb.AddContinuous("u", 0, math.Inf(1), -1)
	unb.AddRow("r", []lp.Term{{Var: u, Coef: -1}}, lp.LE, 0)
	if _, err := s.Solve(unb); err != nil {
		t.Fatal(err)
	}
	if s.Basis() != nil {
		t.Fatal("Basis() non-nil after unbounded solve")
	}

	if NewSolver(nil).Basis() != nil {
		t.Fatal("Basis() non-nil before any solve")
	}
}

// TestWarmBasisOutlivesSolver: the snapshot must stay valid after the
// solver that produced it moves on to other models.
func TestWarmBasisOutlivesSolver(t *testing.T) {
	m := lp.NewModel("tiny")
	x := m.AddContinuous("x", 0, 3, -1)
	y := m.AddContinuous("y", 0, 3, -2)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	s := NewSolver(nil)
	if _, err := s.Solve(m); err != nil {
		t.Fatal(err)
	}
	basis := s.Basis()

	// Churn the donor solver through an unrelated model.
	other := lp.NewModel("other")
	u := other.AddContinuous("u", 0, 9, 1)
	other.AddRow("r", []lp.Term{{Var: u, Coef: 1}}, lp.GE, 2)
	if _, err := s.Solve(other); err != nil {
		t.Fatal(err)
	}

	sol, err := NewSolver(nil).SolveFrom(m, basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Objective-(-7)) > 1e-7 {
		t.Fatalf("got (%v, %v), want optimal -7", sol.Status, sol.Objective)
	}
	if basis.MemBytes() <= 0 {
		t.Fatal("MemBytes must be positive for a real basis")
	}
}

// TestTryWarmNoColdFallback: TryWarm either solves purely warm —
// matching an independent cold solve — or abandons with ok=false having
// paid only staleness detection. It must never run the hidden two-phase
// cold solve that SolveFrom's miss path charges; the branch & bound dive
// relies on that to keep warm and cold runs' budgets comparable.
func TestTryWarmNoColdFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	warmOK := 0
	for trial := 0; trial < 200; trial++ {
		parent := randomBoxLP(rng)
		ps := NewSolver(nil)
		psol, err := ps.Solve(parent)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if psol.Status != lp.StatusOptimal {
			continue
		}
		basis := ps.Basis()
		if basis == nil {
			continue
		}
		child := parent.Clone()
		branchLike(child, psol, rng)

		met := obs.NewMetrics()
		ws := NewSolver(&Options{Metrics: met})
		got, ok, err := ws.TryWarm(child, basis)
		if err != nil {
			t.Fatalf("trial %d: TryWarm: %v", trial, err)
		}
		if !ok {
			if got != nil {
				t.Fatalf("trial %d: abandoned warm start still returned a solution", trial)
			}
			if met.Counter(obs.MetricSimplexWarmMisses) != 1 {
				t.Fatalf("trial %d: miss not recorded", trial)
			}
			if met.Counter(obs.MetricSimplexPhase1) != 0 {
				t.Fatalf("trial %d: abandoned warm start ran %d phase-1 pivots (cold fallback)",
					trial, met.Counter(obs.MetricSimplexPhase1))
			}
			continue
		}
		warmOK++
		if met.Counter(obs.MetricSimplexWarmHits) != 1 {
			t.Fatalf("trial %d: successful TryWarm did not record a warm hit", trial)
		}
		want, err := Solve(child, nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v", trial, got.Status, want.Status)
		}
		if got.Status == lp.StatusOptimal {
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-6*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("trial %d: warm objective %v, cold %v (diff %g)", trial, got.Objective, want.Objective, diff)
			}
		}
	}
	if warmOK < 50 {
		t.Fatalf("only %d successful warm solves exercised; generator too restrictive", warmOK)
	}
}

// TestTryWarmRejectsForeignAndNilBasis: a nil basis and a basis whose
// shape belongs to a different model must both abandon (ok=false, no
// error) before any pivoting.
func TestTryWarmRejectsForeignAndNilBasis(t *testing.T) {
	tiny := lp.NewModel("tiny")
	tiny.AddContinuous("", 0, 1, -1)
	ts := NewSolver(nil)
	if _, err := ts.Solve(tiny); err != nil {
		t.Fatal(err)
	}
	foreign := ts.Basis()
	if foreign == nil {
		t.Fatal("no basis from the tiny model")
	}

	m := randomBoxLP(rand.New(rand.NewSource(7)))
	met := obs.NewMetrics()
	s := NewSolver(&Options{Metrics: met})
	if sol, ok, err := s.TryWarm(m, foreign); ok || err != nil || sol != nil {
		t.Fatalf("foreign basis: sol=%v ok=%v err=%v, want abandon", sol, ok, err)
	}
	if met.Counter(obs.MetricSimplexPhase1) != 0 {
		t.Fatal("foreign basis triggered phase-1 pivots")
	}
	if sol, ok, err := NewSolver(nil).TryWarm(m, nil); ok || err != nil || sol != nil {
		t.Fatalf("nil basis: sol=%v ok=%v err=%v, want abandon", sol, ok, err)
	}
}

// assignmentLP is a random fractional assignment relaxation: items
// with integer weights, each assigned (x_ij ∈ [0,1], Σ_j x_ij = 1) to
// one of a few capacity-limited bins — the shape of the planner's
// placement LPs, where boxed columns dominate.
func assignmentLP(rng *rand.Rand) *lp.Model {
	items, bins := 2+rng.Intn(6), 2+rng.Intn(3)
	m := lp.NewModel("assign")
	w := make([]float64, items)
	total := 0.0
	for i := range w {
		w[i] = float64(1 + rng.Intn(9))
		total += w[i]
	}
	for i := 0; i < items*bins; i++ {
		m.AddContinuous("", 0, 1, float64(1+rng.Intn(20)))
	}
	for i := 0; i < items; i++ {
		var terms []lp.Term
		for j := 0; j < bins; j++ {
			terms = append(terms, lp.Term{Var: lp.VarID(i*bins + j), Coef: 1})
		}
		m.AddRow("", terms, lp.EQ, 1)
	}
	for j := 0; j < bins; j++ {
		var terms []lp.Term
		for i := 0; i < items; i++ {
			terms = append(terms, lp.Term{Var: lp.VarID(i*bins + j), Coef: w[i]})
		}
		m.AddRow("", terms, lp.LE, math.Ceil(total*(0.6+0.5*rng.Float64())/float64(bins)))
	}
	return m
}

// diveLike fixes 2–8 variables at once to an integer next to their
// parent value (mostly the nearest, sometimes the other side), the way
// the branch & bound dive fixes every settled variable in one pass.
func diveLike(m *lp.Model, sol *lp.Solution, rng *rand.Rand) {
	for k := 2 + rng.Intn(7); k > 0; k-- {
		j := lp.VarID(rng.Intn(m.NumVars()))
		v := m.Var(j)
		x := math.Round(sol.X[j])
		if rng.Intn(3) == 0 {
			x = math.Floor(sol.X[j])
			if x == math.Round(sol.X[j]) {
				x = math.Ceil(sol.X[j] + 0.5)
			}
		}
		x = math.Max(v.Lower, math.Min(v.Upper, x))
		m.SetBounds(j, x, x)
	}
}

// TestWarmRestoreNoPingPong pins a child LP on which a dual restore
// that flips a boxed column without taking a dual step ping-pongs that
// column between two rows until the pivot cap, then pays for a cold
// solve on top. Four items (weights 2, 8, 9, 2) go to four bins of
// capacity 6; the child fixes item 0 into bin 3 and bars item 2 from
// bins 1 and 2. A bounded dual simplex restores it warm.
func TestWarmRestoreNoPingPong(t *testing.T) {
	costs := [4][4]float64{{13, 17, 20, 9}, {4, 4, 13, 15}, {20, 2, 4, 13}, {16, 4, 5, 18}}
	weights := [4]float64{2, 8, 9, 2}
	m := lp.NewModel("pingpong")
	for i := range costs {
		for j := range costs[i] {
			m.AddContinuous("", 0, 1, costs[i][j])
		}
	}
	for i := range costs {
		var terms []lp.Term
		for j := range costs[i] {
			terms = append(terms, lp.Term{Var: lp.VarID(4*i + j), Coef: 1})
		}
		m.AddRow("", terms, lp.EQ, 1)
	}
	for j := 0; j < 4; j++ {
		var terms []lp.Term
		for i, w := range weights {
			terms = append(terms, lp.Term{Var: lp.VarID(4*i + j), Coef: w})
		}
		m.AddRow("", terms, lp.LE, 6)
	}
	s := NewSolver(nil)
	if psol, err := s.Solve(m); err != nil || psol.Status != lp.StatusOptimal {
		t.Fatalf("parent solve: %v, %v", psol, err)
	}
	basis := s.Basis()
	if basis == nil {
		t.Fatal("no parent basis")
	}
	child := m.Clone()
	child.SetBounds(3, 1, 1)
	child.SetBounds(9, 0, 0)
	child.SetBounds(10, 0, 0)

	want, err := Solve(child, nil)
	if err != nil || want.Status != lp.StatusOptimal {
		t.Fatalf("cold child solve: %v, %v", want, err)
	}
	if math.Abs(want.Objective-36.013888888888886) > 1e-9 {
		t.Fatalf("cold child objective %v, want 36.013888888888886", want.Objective)
	}
	met := obs.NewMetrics()
	got, err := NewSolver(&Options{Metrics: met}).SolveFrom(child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != lp.StatusOptimal || math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("warm child (%v, %v), cold (%v, %v)", got.Status, got.Objective, want.Status, want.Objective)
	}
	if h, miss := met.Counter(obs.MetricSimplexWarmHits), met.Counter(obs.MetricSimplexWarmMisses); h != 1 || miss != 0 {
		t.Fatalf("warm_hits = %d, warm_misses = %d, want 1/0", h, miss)
	}
	if c := met.Counter(obs.MetricSimplexWarmStaleCap); c != 0 {
		t.Fatalf("warm_stale_cap = %d, want 0", c)
	}
}

// TestWarmDiveFixingsProperty runs dive-style children — a parent with
// 2–8 variables fixed at once — over random box and assignment LPs.
// Every warm solve must agree with a cold one on status and objective;
// every restore that reports primal feasibility must leave exact reduced
// costs dual feasible within OptTol (the ratio test kept the basis dual
// feasible); and no restore may end at the pivot cap.
func TestWarmDiveFixingsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	restored := 0
	for trial := 0; trial < 200; trial++ {
		// Draw parents until one solves to an optimal basis.
		var parent *lp.Model
		var psol *lp.Solution
		var basis *Basis
		for basis == nil {
			parent = randomBoxLP(rng)
			if trial%2 == 1 {
				parent = assignmentLP(rng)
			}
			ps := NewSolver(nil)
			var err error
			if psol, err = ps.Solve(parent); err != nil {
				t.Fatalf("trial %d: parent solve: %v", trial, err)
			}
			basis = ps.Basis()
		}
		child := parent.Clone()
		diveLike(child, psol, rng)

		// The restore alone, on the tableau's internals.
		s := NewSolver(nil)
		if err := s.t.reset(child, &s.opts); err != nil {
			t.Fatalf("trial %d: reset: %v", trial, err)
		}
		if s.t.installBasis(basis) {
			out, err := s.t.dualRestore()
			if err != nil {
				t.Fatalf("trial %d: restore: %v", trial, err)
			}
			if s.t.warmStaleCap != 0 {
				t.Fatalf("trial %d: restore hit the pivot cap after %d pivots", trial, s.t.dualPivots)
			}
			if out == restoreOK {
				restored++
				assertDualFeasible(t, trial, &s.t)
			}
		}

		met := obs.NewMetrics()
		got, err := NewSolver(&Options{Metrics: met}).SolveFrom(child, basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		want, err := Solve(child, nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: warm status %v, cold status %v", trial, got.Status, want.Status)
		}
		if got.Status == lp.StatusOptimal {
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-6*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("trial %d: warm objective %v, cold %v", trial, got.Objective, want.Objective)
			}
		}
		if c := met.Counter(obs.MetricSimplexWarmStaleCap); c != 0 {
			t.Fatalf("trial %d: warm_stale_cap = %d", trial, c)
		}
	}
	if restored < 80 {
		t.Fatalf("only %d restores reached primal feasibility; generator too restrictive", restored)
	}
}

// assertDualFeasible recomputes the reduced costs exactly from the
// tableau's factors and fails unless every nonbasic, non-fixed column
// has the sign its bound status requires, within OptTol.
func assertDualFeasible(t *testing.T, trial int, tb *tableau) {
	t.Helper()
	y := make([]float64, tb.m)
	tb.computeDuals(y)
	optTol := tb.opts.OptTol
	for j := 0; j < tb.nStruct+tb.m; j++ {
		if tb.priceSkip(j) {
			continue
		}
		d := tb.reducedCost(j, y)
		bad := false
		switch tb.status[j] {
		case atLower:
			bad = d < -optTol
		case atUpper:
			bad = d > optTol
		case freeAtZero:
			bad = math.Abs(d) > optTol
		}
		if bad {
			t.Fatalf("trial %d: column %d (status %d) has reduced cost %g after restore", trial, j, tb.status[j], d)
		}
	}
}
