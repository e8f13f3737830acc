package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/simplex"
)

// libRunner is estate-batch: distinct estates planned in-process
// through model → core (→ milp → simplex) → model, one after another,
// each then re-planned after a pin.
type libRunner struct {
	opts    core.Options
	states  [][]byte // the estate set, as a client stores it
	digests []string // pass 1's normalized plan digests, by operation
}

func newLibRunner(seed int64, salt uint64, n int, opts core.Options) (*libRunner, error) {
	r := &libRunner{opts: opts}
	for i := 0; i < n; i++ {
		st, err := genEstate(seed, salt, i)
		if err != nil {
			return nil, err
		}
		b, err := encodeState(st)
		if err != nil {
			return nil, err
		}
		r.states = append(r.states, b)
	}
	// The untimed warm-up plan.
	if lp := libPlan(r.states[0], opts, nil); lp.err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", lp.err)
	}
	return r, nil
}

// libResult is one plan made through the library path.
type libResult struct {
	state   *model.AsIsState
	planner *core.Planner
	plan    *model.Plan
	reg     *obs.Metrics // traced: the planner's metrics registry
	latency time.Duration
	probe   time.Duration // traced: time in probe-only calls, inside latency
	err     error
}

// libPlan is one plan: decode the state, validate it, solve, certify the
// plan and encode it. A traced call also times the layer probes: the
// state's canonical hash, the model build and the root LP relaxation.
func libPlan(state []byte, opts core.Options, tr *tracer) (res libResult) {
	var reg *obs.Metrics
	if tr != nil {
		reg = obs.NewMetrics()
		opts.Solver.Metrics = reg
	}
	t0 := time.Now()
	root := tr.root("plan")
	defer func() {
		tr.end(root)
		res.latency = time.Since(t0)
	}()
	tr.call("model.ReadState", "model", func() { res.state, res.err = model.ReadState(bytes.NewReader(state)) })
	if res.err != nil {
		return res
	}
	tr.call("core.New", "core", func() { res.planner, res.err = core.New(res.state, opts) })
	if res.err != nil {
		return res
	}
	var build, rootLP time.Duration
	if tr != nil {
		p0 := time.Now()
		tr.probe("model.CanonicalHash", "model", func() { _, res.err = model.CanonicalHash(res.state) })
		var m *lp.Model
		b0 := time.Now()
		tr.probe("core.Planner.BuildModel", "core", func() { m, res.err = res.planner.BuildModel() })
		build = time.Since(b0)
		if res.err != nil {
			return res
		}
		var sol *lp.Solution
		s0 := time.Now()
		tr.probe("simplex.Solve", "simplex", func() { sol, res.err = simplex.Solve(m.Relax(), nil) })
		rootLP = time.Since(s0)
		if res.err != nil {
			return res
		}
		if sol.Status != lp.StatusOptimal {
			res.err = fmt.Errorf("root LP relaxation: %v", sol.Status)
			return res
		}
		tr.add("simplex.root_pivots", float64(sol.Iterations))
		tr.add("core.build_plans", 1)
		res.probe = time.Since(p0)
	}
	res.reg = reg
	var solve time.Duration
	res.plan, solve, res.err = solveCertifyEncode(res.planner, reg, tr)
	if tr != nil && res.err == nil {
		tr.sample("milp.tree_ms", ms(solve-build-rootLP))
	}
	return res
}

// solveCertifyEncode is the part of a plan a re-plan repeats: solve,
// certify the plan against the planner's model, encode it. It also
// returns how long the solve took.
func solveCertifyEncode(p *core.Planner, reg *obs.Metrics, tr *tracer) (*model.Plan, time.Duration, error) {
	var (
		plan *model.Plan
		err  error
	)
	t0 := time.Now()
	wall0 := reg.Counter(obs.MetricMILPWallMicros)
	fact0, eta0 := reg.Counter(obs.MetricSimplexFactorizations), reg.Counter(obs.MetricSimplexEtaUpdates)
	id := tr.begin("core.Planner.Solve", "core", false)
	plan, err = p.Solve()
	tr.end(id)
	solve := time.Since(t0)
	if err != nil {
		return nil, solve, err
	}
	if tr != nil {
		tr.derived(id, "milp.SolveContext", "milp", time.Duration(reg.Counter(obs.MetricMILPWallMicros)-wall0)*time.Microsecond)
		tr.add("simplex.factorizations", float64(reg.Counter(obs.MetricSimplexFactorizations)-fact0))
		tr.add("simplex.eta_updates", float64(reg.Counter(obs.MetricSimplexEtaUpdates)-eta0))
		tr.add("simplex.solve_plans", 1)
		tr.add("simplex.solve_us", float64(tr.spans[id].dur().Microseconds()))
		tr.add("simplex.solve_pivots", float64(plan.Stats.Iterations))
	}
	tr.call("core.Planner.CertifyPlan", "core", func() { _, err = p.CertifyPlan(plan) })
	if err != nil {
		return nil, solve, err
	}
	var buf bytes.Buffer
	tr.call("model.WritePlan", "model", func() { err = model.WritePlan(&buf, plan) })
	return plan, solve, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass plans every estate once and re-plans it after pinning one of its
// groups.
func (r *libRunner) pass(index int, tr *tracer) (*passResult, error) {
	pr := &passResult{}
	var digests []string
	record := func(name, kind string, state *model.AsIsState, plan *model.Plan, latency, probe time.Duration, alloc uint64, err error) {
		o := op{name: name, kind: kind, latency: latency}
		pr.wall += latency
		pr.probeWall += probe
		pr.allocBytes += alloc
		if err != nil {
			o.fail = err.Error()
		} else {
			o.cost = plan.Cost.Total()
			o.fail = checkPlan(state, plan)
			d := digest(plan)
			digests = append(digests, d)
			if index > 0 && r.digests != nil && (len(digests) > len(r.digests) || r.digests[len(digests)-1] != d) {
				o.fail = "plan differs from the same operation in pass 1"
			}
			pr.fingerprint.addPlan(plan)
		}
		pr.ops = append(pr.ops, o)
	}
	for i, state := range r.states {
		a0 := allocated()
		res := libPlan(state, r.opts, tr)
		record(fmt.Sprintf("estate %d", i), opPlan, res.state, res.plan, res.latency, res.probe, allocated()-a0, res.err)
		if res.err != nil {
			continue
		}
		a0 = allocated()
		plan, latency, err := replanPinned(res, i%len(res.state.Groups), tr)
		record(fmt.Sprintf("estate %d pinned re-plan", i), opReplan, res.state, plan, latency, 0, allocated()-a0, err)
	}
	if index == 0 {
		r.digests = digests
	}
	pr.fingerprint.PlanDigest = digestAll(digests)
	return pr, nil
}

// replanPinned is the admin loop of the paper's Figure 5 on the same
// planner: lock group g at the site the plan gave it, seed the planner
// with the plan, and plan again. The pin keeps the seed feasible, so the
// re-plan starts from a known incumbent.
func replanPinned(res libResult, g int, tr *tracer) (*model.Plan, time.Duration, error) {
	group := res.state.Groups[g].ID
	dc := res.plan.AssignmentFor(group).PrimaryDC
	t0 := time.Now()
	root := tr.root("replan")
	var err error
	tr.call("core.Planner.Pin", "core", func() { err = res.planner.Pin(group, dc) })
	if err == nil {
		tr.call("core.Planner.SeedPlan", "core", func() { err = res.planner.SeedPlan(res.plan) })
	}
	var plan *model.Plan
	if err == nil {
		plan, _, err = solveCertifyEncode(res.planner, res.reg, tr)
	}
	tr.end(root)
	return plan, time.Since(t0), err
}

// checkPlan applies the output checks every plan must pass beyond
// certification: its cost agrees with the model's evaluator, and no
// wall-clock limit cut its search short.
func checkPlan(state *model.AsIsState, plan *model.Plan) string {
	cb, err := model.EvaluatePlan(state, plan)
	if err != nil {
		return "evaluate: " + err.Error()
	}
	if got, want := plan.Cost.Total(), cb.Total(); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		return fmt.Sprintf("reported cost %.6f, evaluator says %.6f", got, want)
	}
	if d := plan.Stats.Degradation; d != nil && d.Limit == lp.LimitWallClock {
		return "search stopped on the wall clock, not the node budget"
	}
	return ""
}

// normalizedPlan is the plan's encoding with the fields that depend on
// the host or on instrumentation removed: wall-clock times and the
// metrics snapshot a traced solve embeds.
func normalizedPlan(plan *model.Plan) []byte {
	c := *plan
	c.Stats.WallMillis, c.Stats.WorkMillis, c.Stats.Metrics = 0, 0, nil
	if d := plan.Stats.Degradation; d != nil {
		dd := *d
		dd.Attempts = append([]lp.StageAttempt(nil), d.Attempts...)
		for i := range dd.Attempts {
			dd.Attempts[i].Millis = 0
		}
		c.Stats.Degradation = &dd
	}
	var buf bytes.Buffer
	if err := model.WritePlan(&buf, &c); err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return buf.Bytes()
}

// digest is a short hash of a plan's normalized encoding.
func digest(plan *model.Plan) string {
	h := fnv.New64a()
	h.Write(normalizedPlan(plan))
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestAll(ds []string) string {
	h := fnv.New64a()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// addPlan adds one plan's exact work counts to the fingerprint.
func (f *fingerprint) addPlan(plan *model.Plan) {
	s := plan.Stats
	f.Plans++
	f.Nodes += int64(s.Nodes)
	f.Pivots += int64(s.Iterations)
	f.Rows += int64(s.Rows)
	f.Cols += int64(s.Cols)
	f.Nonzeros += int64(s.Nonzeros)
	if d := s.Degradation; d != nil && d.Limit == lp.LimitNodes {
		f.BudgetStops++
	}
	if d := s.Degradation; d != nil && d.Stage != lp.StageExact {
		f.Fallbacks++
	}
	f.costSum += plan.Cost.Total()
	f.CostSum = fmt.Sprintf("%.6f", f.costSum)
	if s.Gap >= 0 { // a fallback plan's gap is unknown (-1)
		f.GapPlans++
		f.gapSum += s.Gap
		f.GapPctSum = fmt.Sprintf("%.9f", 100*f.gapSum)
	}
}
