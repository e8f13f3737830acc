package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
)

// workload is one named set of inputs and the closed loop that runs it.
type workload struct {
	name  string
	setup func(seed int64) (runner, error)
}

// runner is a set-up workload. pass runs one whole pass over the
// workload's fixed input set; tr is nil on untraced passes. probe runs,
// once per traced run, the layer calls the workload's own passes do not
// make, so every per-layer metric is measured on every workload.
type runner interface {
	pass(index int, tr *tracer) (*passResult, error)
	probe(tr *tracer) error
}

// Workload sizes and budgets. The set sizes are large because estate
// difficulty is heavy-tailed: a metric over a whole pass averages the
// tail of one seed's estate set, and a set this size keeps the spread
// between seeds inside the bounds in BENCHMARK.json (see README.md).
const (
	// estateScale is the Enterprise1 scale of every generated estate:
	// 48 groups, 268 servers, 17 legacy sites, 5 target sites.
	estateScale = 0.25
	// nodeBudget caps every solve. It is low enough that a plan stopped
	// by it costs under twice the median plan: at 50 nodes the median
	// fell between the closed and the stopped plans, and moved 37%
	// from one seed's estate set to another's.
	nodeBudget = 15
	// batchEstates sizes estate-batch; serveTenants sizes serve-replan.
	batchEstates = 1000
	serveTenants = 400
)

// Salts keep the workloads' estate seed streams apart, so a seed never
// hands two workloads the same estates.
const (
	saltBatch uint64 = 1
	saltServe uint64 = 2
)

var workloads = map[string]workload{
	"estate-batch": {name: "estate-batch", setup: func(seed int64) (runner, error) {
		return newLibRunner(seed, saltBatch, batchEstates, planOptions(nodeBudget))
	}},
	"serve-replan": {name: "serve-replan", setup: func(seed int64) (runner, error) {
		return newServeRunner(seed, saltServe, serveTenants, planOptions(nodeBudget))
	}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// planOptions are the etransform CLI's default options with a single
// worker and a node budget. The CLI's 5-minute wall limit stays: a run
// ends long before a solve could reach it, and a plan that stops on it
// is counted as failed.
func planOptions(nodes int) core.Options {
	return core.Options{
		Formulation: core.FormulationPair,
		Aggregate:   true,
		Solver: milp.Options{
			GapTol:    1e-3,
			MaxNodes:  nodes,
			TimeLimit: 5 * time.Minute,
			Workers:   1,
		},
	}
}

// estateSeed derives the datagen seed of estate i of a workload:
// splitmix64(seed·0x9E3779B97F4A7C15 ⊕ salt·2³² ⊕ i), top 63 bits.
func estateSeed(seed int64, salt uint64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ salt<<32 ^ uint64(i)
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// genEstate generates estate i of a workload's set.
func genEstate(seed int64, salt uint64, i int) (*model.AsIsState, error) {
	cfg := datagen.Enterprise1().Scaled(estateScale)
	cfg.Seed = estateSeed(seed, salt, i)
	cfg.Name = fmt.Sprintf("estate-%d", i)
	return cfg.Generate()
}

// encodeState renders a state the way a client stores or sends it.
func encodeState(s *model.AsIsState) ([]byte, error) {
	var buf bytes.Buffer
	if err := model.WriteState(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
