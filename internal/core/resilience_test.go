package core

import (
	"encoding/json"
	"flag"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/resilience/faultinject"
)

// TestCleanSolveCarriesNoDegradation: the fault-free path must be
// indistinguishable from a plain exact solve — no report, identical
// output across runs.
func TestCleanSolveCarriesNoDegradation(t *testing.T) {
	var blobs [][]byte
	for run := 0; run < 2; run++ {
		plan := solvePlan(t, twoDCState(t, 1000), Options{})
		if plan.Stats.Degradation != nil {
			t.Fatalf("clean solve attached a degradation report: %+v", plan.Stats.Degradation)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Error("clean solves are not bit-identical across runs")
	}
}

// TestRetryWithPerturbationRecovers: a fault that fires exactly once
// kills the first exact attempt; the perturbed retry must deliver the
// optimal plan, with the failure on record and Degraded still false.
func TestRetryWithPerturbationRecovers(t *testing.T) {
	s := twoDCState(t, 1000)
	clean := solvePlan(t, s, Options{})
	opts := Options{}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot})
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil {
		t.Fatal("retry-recovered solve lost its attempt log")
	}
	if d.Degraded {
		t.Errorf("retry reached the exact optimum; Degraded should be false: %+v", d)
	}
	if d.Stage != lp.StageExact || d.StageIndex != 1 {
		t.Errorf("stage = %q/%d, want exact-milp/1", d.Stage, d.StageIndex)
	}
	if len(d.Attempts) != 2 || d.Attempts[0].Outcome != "failed" || d.Attempts[1].Outcome != "ok" {
		t.Fatalf("attempt log = %+v, want [failed, ok]", d.Attempts)
	}
	if !strings.Contains(d.Attempts[0].Error, "injected pivot failure") {
		t.Errorf("first attempt error = %q, want the injected pivot failure", d.Attempts[0].Error)
	}
	if plan.Cost.Total() != clean.Cost.Total() {
		t.Errorf("retry plan costs %v, clean plan %v", plan.Cost.Total(), clean.Cost.Total())
	}
}

// TestFallbackToRoundingOnPersistentExactFailure: a fault that fires
// forever defeats both exact attempts; the LP-rounding stage must
// deliver a certified feasible plan naming the stage and the cause.
func TestFallbackToRoundingOnPersistentExactFailure(t *testing.T) {
	opts := Options{}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, Count: -1})
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded {
		t.Fatalf("fallback plan must be marked degraded: %+v", d)
	}
	if d.Stage != lp.StageRounding || d.StageIndex != 2 {
		t.Fatalf("stage = %q/%d, want lp-rounding/2", d.Stage, d.StageIndex)
	}
	if !strings.Contains(d.Reason, "injected pivot failure") {
		t.Errorf("reason %q does not name the exact-stage failure", d.Reason)
	}
	if len(d.Attempts) != 3 {
		t.Fatalf("attempt log = %+v, want 2 exact failures + 1 rounding ok", d.Attempts)
	}
	if plan.Stats.Certificate == "" {
		t.Error("fallback plan was not certified")
	}
	if _, err := model.EvaluatePlan(twoDCState(t, 1000), plan); err != nil {
		t.Errorf("fallback plan fails evaluation: %v", err)
	}
	if _, err := json.Marshal(plan); err != nil {
		t.Errorf("degraded plan does not survive JSON: %v", err)
	}
}

// TestFallbackCascadesToGreedy: corrupting every simplex result kills
// the exact stage and the rounding stage's relaxation; the LP-free
// greedy stage must still deliver a certified plan.
func TestFallbackCascadesToGreedy(t *testing.T) {
	opts := Options{}
	opts.Solver.Simplex.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindCorrupt, Count: -1})
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded {
		t.Fatalf("greedy fallback plan must be marked degraded: %+v", d)
	}
	if d.Stage != lp.StageGreedy || d.StageIndex != 3 {
		t.Fatalf("stage = %q/%d, want greedy/3", d.Stage, d.StageIndex)
	}
	var stages []string
	for _, a := range d.Attempts {
		stages = append(stages, a.Stage+":"+a.Outcome)
	}
	got := strings.Join(stages, ",")
	want := "exact-milp:failed,exact-milp:failed,lp-rounding:failed,greedy:ok"
	if got != want {
		t.Errorf("attempt log %q, want %q", got, want)
	}
	if plan.Stats.Certificate == "" {
		t.Error("greedy fallback plan was not certified")
	}
}

// TestDegradedBudgetSurrendersIncumbent: an expired wall budget makes
// the exact stage surrender its warm-start incumbent as a certified
// degraded plan, with the limit named and the gap JSON-safe.
func TestDegradedBudgetSurrendersIncumbent(t *testing.T) {
	opts := Options{}
	opts.Solver.TimeLimit = time.Nanosecond
	plan := solvePlan(t, twoDCState(t, 1000), opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded {
		t.Fatalf("budget-limited plan must be marked degraded: %+v", d)
	}
	if d.Stage != lp.StageExact {
		t.Fatalf("stage = %q, want exact-milp (surrendered incumbent)", d.Stage)
	}
	if d.Limit != lp.LimitWallClock {
		t.Errorf("Limit = %q, want %q", d.Limit, lp.LimitWallClock)
	}
	if plan.Stats.Gap > 0 || plan.Stats.Gap < -1 {
		t.Errorf("Stats.Gap = %v, want a finite value in [-1, 0]", plan.Stats.Gap)
	}
	if _, err := json.Marshal(plan); err != nil {
		t.Errorf("degraded plan does not survive JSON: %v", err)
	}
	if plan.Stats.Certificate == "" {
		t.Error("surrendered incumbent was not certified")
	}
}

// TestFallbackPaperFormulationUsesPairModel: when the paper formulation
// fails, the fallback stages run on the exact pair reformulation and
// must still produce a DR plan with secondaries and pools.
func TestFallbackPaperFormulationUsesPairModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomState(rng, 8, 3, 2, true)
	opts := Options{DR: true, Formulation: FormulationPaper}
	opts.Solver.Inject = faultinject.New(1, faultinject.Fault{Kind: faultinject.KindPivot, Count: -1})
	plan := solvePlan(t, s, opts)
	d := plan.Stats.Degradation
	if d == nil || !d.Degraded || d.Stage != lp.StageRounding {
		t.Fatalf("degradation = %+v, want lp-rounding fallback", d)
	}
	if plan.Stats.Formulation != "pair" {
		t.Errorf("fallback formulation = %q, want the pair reformulation", plan.Stats.Formulation)
	}
	for _, a := range plan.Assignments {
		if a.SecondaryDC == "" || a.SecondaryDC == a.PrimaryDC {
			t.Fatalf("assignment %+v lacks a distinct secondary", a)
		}
	}
	if len(plan.BackupServers) == 0 {
		t.Error("DR fallback plan has no backup pools")
	}
}

// cliSolve plans a ×0.25 Enterprise1 estate generated from seed the way
// `etransform` does with the given solve flags, pins applied first.
func cliSolve(t *testing.T, seed int64, args []string, pins ...[2]string) *model.Plan {
	t.Helper()
	cfg := datagen.Enterprise1()
	cfg.Seed = seed
	state, err := cfg.Scaled(0.25).Generate()
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("etransform", flag.ContinueOnError)
	opts := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	p, err := New(state, *opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range pins {
		if err := p.Pin(pin[0], pin[1]); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// requireExactStage fails unless the plan came from the exact MILP stage
// on its first attempt.
func requireExactStage(t *testing.T, plan *model.Plan) {
	t.Helper()
	if d := plan.Stats.Degradation; d != nil && (d.Stage != lp.StageExact || len(d.Attempts) != 1) {
		t.Fatalf("plan from stage %q after %d attempts, want a first-attempt exact-milp plan: %+v", d.Stage, len(d.Attempts), d)
	}
	if plan.Stats.Certificate == "" {
		t.Error("plan was not certified")
	}
}

// TestExactStageReencodesSlackPool: a node-limited DR incumbent that
// keeps a backup pool larger than its assignment needs costs more in the
// MILP objective than its plan evaluates to. The exact stage re-encodes
// the assignment at its minimal cost instead of failing over to LP
// rounding.
func TestExactStageReencodesSlackPool(t *testing.T) {
	plan := cliSolve(t, 1495613700813607033, []string{"-dr", "-nodes", "40", "-workers", "1"})
	requireExactStage(t, plan)
	if d := plan.Stats.Degradation; d == nil || d.Limit != lp.LimitNodes || d.Gap < 0 {
		t.Errorf("want a node-limited surrender with a known gap, got %+v", d)
	}
}

// TestPinnedGroupPlacedBeforeLargerGroups: the greedy warm start places
// a pinned group before larger groups can fill its only site, so a
// node-limited solve still has an incumbent.
func TestPinnedGroupPlacedBeforeLargerGroups(t *testing.T) {
	plan := cliSolve(t, 6178487593458811055, []string{"-nodes", "50", "-workers", "1"}, [2]string{"ag-0023", "target-4"})
	requireExactStage(t, plan)
	for _, a := range plan.Assignments {
		if a.GroupID == "ag-0023" && a.PrimaryDC != "target-4" {
			t.Errorf("pinned group placed at %s", a.PrimaryDC)
		}
	}
}
