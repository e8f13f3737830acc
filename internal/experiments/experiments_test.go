package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
)

func testScale() Scale {
	return Scale{Fraction: 1, Solver: milp.Options{GapTol: 2e-3, MaxNodes: 3000, TimeLimit: 45 * time.Second}}
}

func TestTableII(t *testing.T) {
	rows := TableII(FullScale())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "enterprise1" || rows[0].Servers != 1070 || rows[0].CurrentDCs != 67 {
		t.Errorf("enterprise1 row: %+v", rows[0])
	}
	if rows[2].AppGroups != 1900 || rows[2].TargetDCs != 100 {
		t.Errorf("federal row: %+v", rows[2])
	}
	out := RenderTableII(rows)
	for _, want := range []string{"enterprise1", "florida", "federal", "42800"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4Enterprise1(t *testing.T) {
	res, err := Figure4(datagen.Enterprise1(), testScale())
	if err != nil {
		t.Fatal(err)
	}
	// Headline claim (§VI-B): eTransform cuts as-is operational cost by
	// a large margin (paper: −43% on Enterprise1) and beats both
	// baselines while satisfying (nearly) all latency constraints.
	et := res.Reduction("ETRANSFORM")
	if et > -0.30 {
		t.Errorf("eTransform reduction = %v, want ≤ −30%%", et)
	}
	if res.Cost("ETRANSFORM") > res.Cost("GREEDY")+1e-6 {
		t.Errorf("eTransform (%v) costlier than greedy (%v)", res.Cost("ETRANSFORM"), res.Cost("GREEDY"))
	}
	if v := res.Violations("ETRANSFORM"); v > 2 {
		t.Errorf("eTransform latency violations = %d, want ≤ 2", v)
	}
	// The manual baseline ignores latency: it must pay more penalty than
	// eTransform (paper Table 4e: 74 vs 0).
	if res.Breakdowns["MANUAL"].Latency <= res.Breakdowns["ETRANSFORM"].Latency {
		t.Errorf("manual penalty (%v) not worse than eTransform (%v)",
			res.Breakdowns["MANUAL"].Latency, res.Breakdowns["ETRANSFORM"].Latency)
	}
	out := res.Render()
	for _, want := range []string{"ETRANSFORM", "AS-IS", "vs as-is"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure6Enterprise1DR(t *testing.T) {
	res, err := Figure6(datagen.Enterprise1(), testScale())
	if err != nil {
		t.Fatal(err)
	}
	// §VI-C headline: an integrated DR + consolidation plan still beats
	// bolting DR onto the as-is estate (paper: −36% on Enterprise1).
	if et := res.Reduction("ETRANSFORM"); et > -0.15 {
		t.Errorf("eTransform DR reduction = %v, want ≤ −15%%", et)
	}
	// Shared pools: eTransform must buy far fewer backup servers than
	// greedy's dedicated copies (which equal the whole estate).
	etB := res.Breakdowns["ETRANSFORM"].TotalBackupServers
	grB := res.Breakdowns["GREEDY"].TotalBackupServers
	if etB == 0 || etB >= grB {
		t.Errorf("backup servers: eTransform %d vs greedy %d, want shared < dedicated", etB, grB)
	}
	if v := res.Violations("ETRANSFORM"); v > 8 {
		t.Errorf("eTransform DR latency violations = %d", v)
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := Figure7(context.Background(), testScale())
	if err != nil {
		t.Fatal(err)
	}
	// (1) All users at location 0 (split=1): the cheapest location also
	// satisfies latency, so cost must be flat across penalties.
	flat := res.TotalCost[1]
	for i := 1; i < len(flat); i++ {
		if flat[i] != flat[0] {
			t.Errorf("split=1 cost not flat: %v", flat)
			break
		}
	}
	// (2) All users at location 9 (split=0): rising penalties push the
	// placement toward expensive location 9 — space cost rises and mean
	// latency falls; at the top penalty latency must be low.
	space := res.SpaceCost[0]
	if space[len(space)-1] <= space[0] {
		t.Errorf("split=0 space cost did not rise: %v", space)
	}
	lat := res.MeanLatMs[0]
	if lat[len(lat)-1] >= lat[0] {
		t.Errorf("split=0 latency did not fall: %v", lat)
	}
	if lat[len(lat)-1] > 10 {
		t.Errorf("split=0 final latency = %v ms, want ≤ threshold 10", lat[len(lat)-1])
	}
	// (3) Mixed population (25% near): rising penalties pull the
	// placement toward the far majority — space cost rises and mean
	// latency falls, the paper's Figure 7(b)/(c) signature for mixed
	// splits.
	mixSpace := res.SpaceCost[0.25]
	if mixSpace[len(mixSpace)-1] <= mixSpace[0] {
		t.Errorf("split=0.25 space cost did not rise: %v", mixSpace)
	}
	mixLat := res.MeanLatMs[0.25]
	if mixLat[len(mixLat)-1] >= mixLat[0] {
		t.Errorf("split=0.25 latency did not fall: %v", mixLat)
	}
	// (4) Total cost is non-decreasing in the penalty for every split
	// (a higher penalty can never make the optimum cheaper).
	for split, series := range res.TotalCost {
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-6 {
				t.Errorf("split=%v total cost decreased: %v", split, series)
				break
			}
		}
	}
	if !strings.Contains(res.Render(), "Average Latency") {
		t.Error("render missing panel")
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8(context.Background(), testScale())
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.DRServerCost)
	// Cheap DR servers: consolidate (2 sites, full-estate pool).
	if res.DCsUsed[0] > 3 {
		t.Errorf("ζ=$1 uses %d DCs, want ≤ 3", res.DCsUsed[0])
	}
	// Expensive DR servers: spread primaries, shrink the shared pool.
	if res.DCsUsed[n-1] <= res.DCsUsed[0] {
		t.Errorf("DCs used did not grow with ζ: %v", res.DCsUsed)
	}
	if res.DRServers[n-1] >= res.DRServers[0] {
		t.Errorf("DR servers did not shrink with ζ: %v", res.DRServers)
	}
	// Monotone trends (allowing plateaus).
	for i := 1; i < n; i++ {
		if res.DCsUsed[i] < res.DCsUsed[i-1] {
			t.Errorf("DCs used not monotone: %v", res.DCsUsed)
		}
		if res.DRServers[i] > res.DRServers[i-1] {
			t.Errorf("DR servers not monotone: %v", res.DRServers)
		}
	}
	if !strings.Contains(res.Render(), "DR servers") {
		t.Error("render missing series")
	}
}

func TestFigure9UShape(t *testing.T) {
	res, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.TotalCost)
	for d := 1; d < n; d++ {
		if res.SpaceCost[d] <= res.SpaceCost[d-1] {
			t.Errorf("space cost not rising at %d", d)
		}
		if res.WANCost[d] >= res.WANCost[d-1] {
			t.Errorf("WAN cost not falling at %d", d)
		}
	}
	// Interior optimum (§VI-F: the paper finds location 4 of 10).
	if res.CheapestLocation == 0 || res.CheapestLocation == n-1 {
		t.Errorf("cheapest location %d is not interior", res.CheapestLocation)
	}
	// The paper reports a 7× spread between best and worst locations.
	if res.Spread < 2 {
		t.Errorf("cost spread = %v, want substantial (paper: 7x)", res.Spread)
	}
	if !strings.Contains(res.Render(), "cheapest location") {
		t.Error("render missing argmin line")
	}
}

func TestFigure10Growth(t *testing.T) {
	res, err := Figure10(context.Background(), testScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.GroupCounts {
		lower := minDCsNeeded(n, 100)
		if res.DCsUsed[i] < lower {
			t.Errorf("%d groups in %d DCs beats the packing bound %d", n, res.DCsUsed[i], lower)
		}
		if res.DCsUsed[i] > lower+1 {
			t.Errorf("%d groups used %d DCs, want ≈ %d (cost-ordered fill)", n, res.DCsUsed[i], lower)
		}
	}
	for i := 1; i < len(res.DCsUsed); i++ {
		if res.DCsUsed[i] < res.DCsUsed[i-1] {
			t.Errorf("DCs used shrank as groups grew: %v", res.DCsUsed)
		}
	}
	// Fill order: the used locations must be (a prefix of) the total-cost
	// ranking from Figure 9.
	for i, order := range res.FillOrder {
		rank := res.CostRank[:len(order)]
		inRank := make(map[int]bool, len(rank))
		for _, d := range rank {
			inRank[d] = true
		}
		for _, d := range order {
			if !inRank[d] {
				t.Errorf("%d groups: location %d used but not among the %d cheapest %v",
					res.GroupCounts[i], d, len(order), rank)
			}
		}
	}
	if !strings.Contains(res.Render(), "fill order") {
		t.Error("render missing fill order")
	}
}

func TestScaledFederalCaseStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("federal case study is slow")
	}
	sc := testScale()
	sc.Fraction = 0.1
	sc.CandidateKLarge = 8
	res, err := Figure4(datagen.Federal(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduction("ETRANSFORM") > -0.25 {
		t.Errorf("scaled federal reduction = %v", res.Reduction("ETRANSFORM"))
	}
}
