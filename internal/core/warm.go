package core

import (
	"math"
	"sort"

	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// This file implements the planner's warm-start heuristic for DR solves.
// The DR MILP's LP relaxation understates the shared-pool cost (a
// fractional solution spreads each group's secondary across many sites,
// deflating every G_b ≥ Σ demand row), so branch & bound needs a strong
// incumbent to prune against. The heuristic constructs the structures the
// optimum actually takes — primaries spread over the k cheapest sites
// with all secondaries routed to a common pool site — for every k, and
// feeds each encoding to the solver as a candidate incumbent.

// warmStarts returns candidate feasible points: a greedy packing for
// plain consolidation models, and structured pool/latency variants for
// pair-formulation DR models.
func (b *builder) warmStarts() [][]float64 {
	if b.p.opts.DR && b.p.opts.Formulation == FormulationPaper {
		return nil
	}
	if !b.p.opts.DR {
		placement, ok := b.greedyPlacement()
		if !ok {
			return nil
		}
		if b.improvable() {
			b.localImprove(placement, nil, 2)
		}
		if x, ok := b.encodePoint(placement, nil); ok {
			return [][]float64{x}
		}
		return nil
	}
	s := b.s
	n := len(s.Target.DCs)
	perServer := func(j int) float64 {
		return s.Target.DCs[j].SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[j], &s.Params)
	}
	rank := sortedIndices(n, perServer)

	poolCost := func(j int) float64 {
		dc := &s.Target.DCs[j]
		return s.Params.DRServerCost + dc.SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(&s.Target.DCs[j], &s.Params)
	}
	poolRank := sortedIndices(n, poolCost)

	maxK := n
	if maxK > 12 {
		maxK = 12
	}
	type cand struct {
		placement, secondary []int
		cost                 float64
	}
	var cands []cand
	add := func(placement, secondary []int) {
		cands = append(cands, cand{placement, secondary, b.evalTotal(placement, secondary)})
	}
	for k := 1; k <= maxK; k++ {
		// Variant A: primaries on the k cheapest sites; pool wherever
		// cheapest (good when DR servers are cheap and consolidation
		// dominates).
		// Variant B: reserve the cheapest pool site exclusively for
		// backups so a single shared pool of max-single-failure size
		// covers everyone (good when DR servers are expensive).
		variants := [][]int{rank[:k:k]}
		if n > k {
			var exclusive []int
			for _, j := range rank {
				if j != poolRank[0] {
					exclusive = append(exclusive, j)
				}
				if len(exclusive) == k {
					break
				}
			}
			variants = append(variants, exclusive)
		}
		for _, prims := range variants {
			for _, latencyFirst := range []bool{false, true} {
				placement, secondary, ok := b.heuristicDRPlacement(prims, poolRank, latencyFirst)
				if !ok {
					continue
				}
				add(placement, secondary)
			}
		}
	}
	// One more variant: cost-greedy primaries (which respect latency
	// penalties) with latency-first secondaries.
	if placement, ok := b.greedyPlacement(); ok {
		if secondary, ok := b.latencyFirstSecondaries(placement, poolRank); ok {
			add(placement, secondary)
		}
	}

	// Polish the most promising candidates with local search before
	// encoding: the LP bound is too weak for branch & bound to do this
	// refinement itself in reasonable time.
	sortCands := sortedIndices(len(cands), func(i int) float64 { return cands[i].cost })
	polish := 3
	if !b.improvable() {
		polish = 0
	}
	var out [][]float64
	for rank2, ci := range sortCands {
		c := cands[ci]
		if rank2 < polish {
			b.localImprove(c.placement, c.secondary, 3)
		}
		if x, ok := b.encodePoint(c.placement, c.secondary); ok {
			out = append(out, x)
		}
	}
	return out
}

// seedPoint encodes the planner's registered seed plan (SeedPlan) as a
// full variable point for this build, or ok=false when no seed is set,
// the formulation cannot encode concrete points (paper DR), or the seed
// names a column this model pruned away. A seed that fails to encode is
// silently unused — it is an accelerator, never a requirement.
func (b *builder) seedPoint() ([]float64, bool) {
	if b.p.seedPlacement == nil {
		return nil, false
	}
	return b.encodePoint(b.p.seedPlacement, b.p.seedSecondary)
}

// improvable bounds the local-search effort: on very large estates a
// single sweep costs too much, so polishing is skipped (the structural
// warm starts still apply).
func (b *builder) improvable() bool {
	return len(b.s.Groups)*len(b.s.Target.DCs) <= 50000
}

// hasColumn reports whether the model has a placement column for group
// i at primary a (secondary sec, −1 when non-DR) — false when candidate
// pruning dropped it, in which case warm starts must avoid it too.
func (b *builder) hasColumn(i, a, sec int) bool {
	_, ok := b.varOf[[3]int{b.memberType[i], a, sec}]
	return ok
}

// primaryAvailable reports whether group i may be warm-placed at a: the
// site must be feasible and, under candidate pruning, still have columns.
func (b *builder) primaryAvailable(i, a int) bool {
	g := &b.s.Groups[i]
	if !b.feasiblePrimary(g, a) {
		return false
	}
	if !b.p.opts.DR {
		return b.hasColumn(i, a, -1)
	}
	for sb := range b.s.Target.DCs {
		if sb != a && b.hasColumn(i, a, sb) {
			return true
		}
	}
	return false
}

// greedyPlacement packs groups (pinned first, then largest first) into
// the cheapest feasible site by marginal cost, as a fast primal bound for
// the solver. A pinned group has one site, so it goes in before larger
// groups can fill that site.
func (b *builder) greedyPlacement() ([]int, bool) {
	s := b.s
	load := make([]int, len(s.Target.DCs))
	placement := make([]int, len(s.Groups))
	order := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	sort.SliceStable(order, func(a, c int) bool {
		return s.Groups[order[a]].PinnedDC != "" && s.Groups[order[c]].PinnedDC == ""
	})
	for _, i := range order {
		g := &s.Groups[i]
		best := -1
		bestCost := math.Inf(1)
		for j := range s.Target.DCs {
			if !b.primaryAvailable(i, j) {
				continue
			}
			dc := &s.Target.DCs[j]
			if load[j]+g.Servers > dc.CapacityServers {
				continue
			}
			c := b.primaryCost(g, j)
			if !b.flatSpace[j] {
				c += dc.SpaceCost.MustEval(float64(load[j]+g.Servers)) - dc.SpaceCost.MustEval(float64(load[j]))
			}
			if c < bestCost {
				best, bestCost = j, c
			}
		}
		if best < 0 {
			return nil, false
		}
		placement[i] = best
		load[best] += g.Servers
	}
	return placement, true
}

// latencyFirstSecondaries picks each group's cheapest-latency feasible
// secondary (ties broken by pool cost), then validates pool capacity.
func (b *builder) latencyFirstSecondaries(placement []int, poolRank []int) ([]int, bool) {
	s := b.s
	n := len(s.Target.DCs)
	poolPos := make([]int, n)
	for pos, j := range poolRank {
		poolPos[j] = pos
	}
	secondary := make([]int, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		sec := -1
		bestCost := math.Inf(1)
		bestPos := n
		for j := 0; j < n; j++ {
			if j == placement[i] || !b.feasibleSecondary(g, j) || !b.hasColumn(i, placement[i], j) {
				continue
			}
			c := b.secondaryCost(g, j)
			if c < bestCost || (tol.Same(c, bestCost) && poolPos[j] < bestPos) {
				sec, bestCost, bestPos = j, c, poolPos[j]
			}
		}
		if sec < 0 {
			return nil, false
		}
		secondary[i] = sec
	}
	if !b.repairPools(placement, secondary) {
		return nil, false
	}
	return secondary, true
}

// heuristicDRPlacement spreads primaries across the given sites
// (load-balanced) and routes secondaries either to a common cheap pool
// site or, when latencyFirst is set, to each group's cheapest-latency
// site.
func (b *builder) heuristicDRPlacement(prims, poolRank []int, latencyFirst bool) (placement, secondary []int, ok bool) {
	s := b.s
	n := len(s.Target.DCs)

	load := make([]int, n)
	placement = make([]int, len(s.Groups))
	order := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for _, i := range order {
		g := &s.Groups[i]
		best := -1
		bestRatio := math.Inf(1)
		for _, j := range prims {
			if !b.primaryAvailable(i, j) {
				continue
			}
			dc := &s.Target.DCs[j]
			if load[j]+g.Servers > dc.CapacityServers {
				continue
			}
			ratio := float64(load[j]+g.Servers) / float64(dc.CapacityServers)
			if ratio < bestRatio {
				best, bestRatio = j, ratio
			}
		}
		if best < 0 {
			// Latency-sensitive or pinned groups may have no candidate
			// column inside the chosen prefix (candidate pruning keeps
			// only their own cheapest sites); fall back to the group's
			// cheapest available site with room.
			bestCost := math.Inf(1)
			for j := 0; j < n; j++ {
				if !b.primaryAvailable(i, j) || load[j]+g.Servers > s.Target.DCs[j].CapacityServers {
					continue
				}
				if c := b.primaryCost(g, j); c < bestCost {
					best, bestCost = j, c
				}
			}
			if best < 0 {
				return nil, nil, false
			}
		}
		placement[i] = best
		load[best] += g.Servers
	}

	// Pool sites: prefer sites not hosting primaries, then by pool cost.
	inPrims := make(map[int]bool, len(prims))
	for _, j := range prims {
		inPrims[j] = true
	}
	b1, b2 := -1, -1
	for _, j := range poolRank {
		if !inPrims[j] && b1 < 0 {
			b1 = j
		}
	}
	if b1 < 0 {
		b1 = poolRank[0]
	}
	for _, j := range poolRank {
		if j != b1 {
			b2 = j
			break
		}
	}
	if b2 < 0 {
		b2 = b1
	}

	secondary = make([]int, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		sec := -1
		if latencyFirst && !g.LatencyPenalty.IsZero() {
			// Latency-sensitive groups fail over to the cheapest-latency
			// site; zero-penalty sites still pool well per user class.
			bestCost := math.Inf(1)
			for j := 0; j < n; j++ {
				if j == placement[i] || !b.feasibleSecondary(g, j) || !b.hasColumn(i, placement[i], j) {
					continue
				}
				if c := b.secondaryCost(g, j); c < bestCost {
					sec, bestCost = j, c
				}
			}
		}
		for _, cand := range []int{b1, b2} {
			if sec >= 0 {
				break
			}
			if cand != placement[i] && b.feasibleSecondary(g, cand) && b.hasColumn(i, placement[i], cand) {
				sec = cand
			}
		}
		if sec < 0 {
			// Fall back to the first feasible distinct site in pool-cost
			// order.
			for _, j := range poolRank {
				if j != placement[i] && b.feasibleSecondary(g, j) && b.hasColumn(i, placement[i], j) {
					sec = j
					break
				}
			}
			if sec < 0 {
				return nil, nil, false
			}
		}
		secondary[i] = sec
	}

	// Capacity must hold with the implied pools; reroute overflowing
	// secondaries if not.
	if !b.repairPools(placement, secondary) {
		return nil, nil, false
	}
	return placement, secondary, true
}

// repairPools reroutes secondaries away from data centers whose primary
// load plus backup pool would exceed capacity, largest groups first,
// until every site fits (true) or no move helps (false).
func (b *builder) repairPools(placement, secondary []int) bool {
	s := b.s
	n := len(s.Target.DCs)
	idx := sortedIndices(len(s.Groups), func(i int) float64 { return -float64(s.Groups[i].Servers) })
	for pass := 0; pass < 8*n; pass++ {
		load := make([]int, n)
		for i := range s.Groups {
			load[placement[i]] += s.Groups[i].Servers
		}
		backups := b.requiredBackups(placement, secondary)
		over := -1
		for j := 0; j < n; j++ {
			if load[j]+backups[j] > s.Target.DCs[j].CapacityServers {
				over = j
				break
			}
		}
		if over < 0 {
			return true
		}
		moved := false
		for _, i := range idx {
			if secondary[i] != over {
				continue
			}
			g := &s.Groups[i]
			best := -1
			bestCost := math.Inf(1)
			for j := 0; j < n; j++ {
				if j == over || j == placement[i] || !b.feasibleSecondary(g, j) || !b.hasColumn(i, placement[i], j) {
					continue
				}
				// Conservative slack check: the pool at j can grow by at
				// most this group's size.
				if load[j]+backups[j]+g.Servers > s.Target.DCs[j].CapacityServers {
					continue
				}
				if c := b.secondaryCost(g, j); c < bestCost {
					best, bestCost = j, c
				}
			}
			if best >= 0 {
				secondary[i] = best
				moved = true
				break
			}
		}
		if !moved {
			return false
		}
	}
	return false
}

// encodePoint converts a concrete (placement, secondary) into a full
// variable vector for the pair-formulation model: placement counts, pool
// sizes, and space-segment fills. Returns ok=false when a needed column
// was pruned out of the model, and for the paper DR formulation, which
// has no pair columns.
func (b *builder) encodePoint(placement, secondary []int) ([]float64, bool) {
	if b.p.opts.DR && b.p.opts.Formulation == FormulationPaper {
		return nil, false
	}
	s := b.s
	x := make([]float64, b.m.NumVars())
	occ := make([]int, len(s.Target.DCs))
	for i := range s.Groups {
		sec := -1
		if secondary != nil {
			sec = secondary[i]
		}
		v, ok := b.varOf[[3]int{b.memberType[i], placement[i], sec}]
		if !ok {
			return nil, false
		}
		x[v]++
		occ[placement[i]] += s.Groups[i].Servers
	}
	if secondary != nil {
		backups := b.requiredBackups(placement, secondary)
		for j, gj := range backups {
			x[b.gVars[j]] = float64(gj)
			occ[j] += gj
		}
	}
	// Fill space segments in order; open the fill-order binaries for
	// every segment actually used.
	for j := range s.Target.DCs {
		if len(b.segVars[j]) == 0 {
			continue
		}
		rem := float64(occ[j])
		for k, u := range b.segVars[j] {
			take := math.Min(rem, b.segWidths[j][k])
			x[u] = take
			rem -= take
			if k >= 1 && take > 0 && len(b.ordVars[j]) >= k {
				x[b.ordVars[j][k-1]] = 1
			}
		}
		if tol.Pos(rem, tol.Tighten) {
			return nil, false
		}
	}
	return x, true
}
