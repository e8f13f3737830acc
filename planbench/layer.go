package main

import "time"

// layerMetrics computes the per-layer metrics of a traced run: span
// timings and counts from the traced passes and the layer probe, the
// exact work counts of one traced pass, and the tracing overhead against
// the run's untraced passes.
func layerMetrics(plain, traced []*passResult, tr *tracer) map[string]metric {
	f := traced[0].fingerprint
	perPlan := func(v float64) float64 { return v / float64(max(1, f.Plans)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(name string, probes bool) float64 { return median(tr.durations(name, probes)) }

	hits := tr.samples["serve.hit_ms"]
	var ops int
	var wall time.Duration
	for _, p := range traced {
		ops += len(p.ops)
		wall += p.wall - p.probeWall
		for _, o := range p.ops {
			if o.kind == opHit {
				hits = append(hits, ms(o.latency))
			}
		}
	}
	var plainOps int
	var plainWall time.Duration
	for _, p := range plain {
		plainOps += len(p.ops)
		plainWall += p.wall
	}

	// Serve counters: the workload's own daemon when it has one, else the
	// probe's.
	cacheHits, cacheMisses := float64(f.CacheHits), float64(f.CacheMisses)
	warmSeeded, degraded := float64(f.WarmSeeded), float64(f.JobsDegraded)
	if cacheHits+cacheMisses == 0 {
		cacheHits, cacheMisses = tr.sums["serve.cache_hits"], tr.sums["serve.cache_misses"]
		warmSeeded, degraded = tr.sums["serve.warm_seeded"], tr.sums["serve.jobs_degraded"]
	}

	self := tr.selfTimes()
	traces := float64(max(1, tr.trace))
	m := map[string]metric{
		"model.decode_ms_p50": {p50("model.ReadState", true), "ms"},
		"model.hash_ms_p50":   {p50("model.CanonicalHash", true), "ms"},
		"model.encode_ms_p50": {p50("model.WritePlan", true), "ms"},

		"core.validate_ms_p50": {p50("core.New", true), "ms"},
		"core.build_ms_p50":    {p50("core.Planner.BuildModel", true), "ms"},
		"core.certify_ms_p50":  {p50("core.Planner.CertifyPlan", true), "ms"},
		"core.solve_ms_p50":    {p50("core.Planner.Solve", false), "ms"},
		"core.rows":            {perPlan(float64(f.Rows)), "count"},
		"core.cols":            {perPlan(float64(f.Cols)), "count"},
		"core.nonzeros":        {perPlan(float64(f.Nonzeros)), "count"},
		"core.fallback_plans":  {float64(f.Fallbacks), "count"},

		"simplex.root_ms_p50":             {p50("simplex.Solve", true), "ms"},
		"simplex.root_pivots":             {ratio(tr.sums["simplex.root_pivots"], tr.sums["core.build_plans"]), "count"},
		"simplex.pivots_per_plan":         {perPlan(float64(f.Pivots)), "count"},
		"simplex.us_per_pivot":            {ratio(tr.sums["simplex.solve_us"], tr.sums["simplex.solve_pivots"]), "us"},
		"simplex.factorizations_per_plan": {ratio(tr.sums["simplex.factorizations"], tr.sums["simplex.solve_plans"]), "count"},
		"simplex.eta_updates_per_plan":    {ratio(tr.sums["simplex.eta_updates"], tr.sums["simplex.solve_plans"]), "count"},
		"simplex.warm_hit_ratio":          {ratio(tr.sums["replay.warm_hits"], tr.sums["replay.warm_attempts"]), "ratio"},
		"simplex.dual_pivots_per_replan":  {ratio(tr.sums["replay.dual_pivots"], tr.sums["replay.replans"]), "count"},

		"milp.nodes_per_plan": {perPlan(float64(f.Nodes)), "count"},
		"milp.tree_ms_p50":    {median(tr.samples["milp.tree_ms"]), "ms"},
		"milp.budget_stops":   {float64(f.BudgetStops), "count"},
		"milp.gap_pct_mean":   {ratio(100*f.gapSum, float64(f.GapPlans)), "%"},

		"serve.submit_ms_p50": {p50("serve.submit", true), "ms"},
		"serve.wait_ms_p50":   {p50("serve.wait", true), "ms"},
		"serve.fetch_ms_p50":  {p50("serve.fetch", true), "ms"},
		"serve.hit_ms_p50":    {median(hits), "ms"},
		"serve.cache_hits":    {cacheHits, "count"},
		"serve.cache_misses":  {cacheMisses, "count"},
		"serve.hit_ratio":     {ratio(cacheHits, cacheHits+cacheMisses), "ratio"},
		"serve.warm_seeded":   {warmSeeded, "count"},
		"serve.jobs_degraded": {degraded, "count"},

		"bench.trace_overhead_pct": {100 * (ratio(float64(plainOps), plainWall.Seconds())/ratio(float64(ops), wall.Seconds()) - 1), "%"},
	}
	for _, layer := range []string{"model", "core", "simplex", "milp", "serve"} {
		m["self_ms."+layer] = metric{ms(self[layer]) / traces, "ms"}
	}
	return m
}
