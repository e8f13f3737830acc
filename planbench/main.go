// Command planbench is the repository's end-to-end planner benchmark.
//
// It runs one workload in its own process through the public APIs of
// the model, core, simplex, milp and serve packages, checks every plan it
// gets back, and prints one JSON result line:
//
//	planbench --workload estate-batch --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose spans
// are written to <out>/spans-<workload>-<seed>.jsonl. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, so one slow phase of the host does not set it.
const setupRepeats = 3

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every estate seed is derived from it")
	seconds := fs.Float64("seconds", 45, "planning time to measure, in whole passes")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_build", "directory for span and fingerprint files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "planbench: need --workload one of %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "planbench: FAILED", f)
	}
	if err := writeSidecars(cfg, res); err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	fp, _ := json.Marshal(res.fingerprint)
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "planbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is everything a run produced.
type runResult struct {
	result      result
	fingerprint fingerprint
	spans       []span
	failures    []string
}

// measure sets the workload up setupRepeats times, then runs whole
// passes for cfg.seconds. An untraced run reports the end-to-end metrics;
// a traced run spends the first half untraced (for the overhead
// baseline) and the second half traced, and reports the layer metrics.
func measure(w workload, cfg config) (*runResult, error) {
	var (
		r      runner
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var plain, traced []*passResult
	budget := cfg.seconds
	if cfg.trace {
		budget = cfg.seconds / 2
	}
	plain, err := runPasses(r, budget, 0, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if traced, err = runPasses(r, cfg.seconds/2, len(plain), tr); err != nil {
			return nil, err
		}
		if err := r.probe(tr); err != nil {
			return nil, fmt.Errorf("%s layer probe: %w", w.name, err)
		}
	}

	all := append(append([]*passResult{}, plain...), traced...)
	res := &runResult{fingerprint: all[0].fingerprint}
	res.fingerprint.Workload, res.fingerprint.Seed = w.name, cfg.seed
	for i, p := range all {
		res.result.Attempted += len(p.ops)
		for _, op := range p.ops {
			if op.fail != "" {
				res.result.Failed++
				res.failures = append(res.failures, fmt.Sprintf("pass %d %s: %s", i+1, op.name, op.fail))
			}
		}
		if i > 0 && p.fingerprint != all[0].fingerprint {
			res.result.Failed++
			res.failures = append(res.failures, fmt.Sprintf("pass %d did different work than pass 1", i+1))
		}
	}
	res.result.Correct = res.result.Failed == 0
	if cfg.trace {
		res.spans = tr.spans
		res.result.Metrics = layerMetrics(plain, traced, tr)
	} else {
		res.result.Metrics = endToEndMetrics(plain, median(setups))
	}
	return res, nil
}

// runPasses runs whole passes, numbered from first, until the next one
// would likely take the planning time past the budget; at least one pass
// always runs. The output checks between operations do not count against
// the budget.
func runPasses(r runner, budget float64, first int, tr *tracer) ([]*passResult, error) {
	var passes []*passResult
	spent := 0.0
	for len(passes) == 0 || spent+spent/float64(len(passes)) <= budget {
		t0 := time.Now()
		p, err := r.pass(first+len(passes), tr)
		if err != nil {
			return nil, err
		}
		spent += p.wall.Seconds()
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "planbench: pass %d: %d operations, %.3f s planning, %.3f s with checks\n",
			first+len(passes), len(p.ops), p.wall.Seconds(), time.Since(t0).Seconds())
	}
	return passes, nil
}

// op is one plan operation: a plan, a re-plan or a cache hit.
type op struct {
	name    string
	kind    string // opPlan, opReplan or opHit
	latency time.Duration
	cost    float64
	fail    string // empty when the operation and its checks passed
}

const (
	opPlan   = "plan"
	opReplan = "replan"
	opHit    = "hit"
)

// passResult is one whole pass over the workload's estate set.
type passResult struct {
	ops         []op
	wall        time.Duration // time spent in plan operations
	probeWall   time.Duration // traced passes: time in probe-only calls
	allocBytes  uint64
	fingerprint fingerprint
}

// fingerprint is the exact work one pass did. At Workers=1 under a node
// budget it depends only on the program and the seed, never on the host.
type fingerprint struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Plans        int    `json:"plans"`
	Nodes        int64  `json:"nodes"`
	Pivots       int64  `json:"pivots"`
	Rows         int64  `json:"rows"`
	Cols         int64  `json:"cols"`
	Nonzeros     int64  `json:"nonzeros"`
	BudgetStops  int    `json:"budget_stops"`
	Fallbacks    int    `json:"fallback_plans"`
	GapPlans     int    `json:"gap_plans"`
	CostSum      string `json:"cost_sum"`
	GapPctSum    string `json:"gap_pct_sum"`
	PlanDigest   string `json:"plan_digest"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	WarmSeeded   int64  `json:"warm_seeded"`
	JobsDegraded int64  `json:"jobs_degraded"`

	costSum, gapSum float64
}

// endToEndMetrics computes the gated metrics from untraced passes.
func endToEndMetrics(passes []*passResult, setup float64) map[string]metric {
	var (
		all, replans []float64
		wall         time.Duration
		plans        int
		alloc        uint64
	)
	for _, p := range passes {
		wall += p.wall
		alloc += p.allocBytes
		plans += len(p.ops)
		for _, o := range p.ops {
			ms := float64(o.latency) / float64(time.Millisecond)
			all = append(all, ms)
			if o.kind == opReplan {
				replans = append(replans, ms)
			}
		}
	}
	costSum := 0.0
	for _, o := range passes[0].ops {
		costSum += o.cost
	}
	return map[string]metric{
		"setup_s":             {setup, "s"},
		"plans_per_s":         {float64(plans) / wall.Seconds(), "1/s"},
		"plan_ms_p50":         {quantile(all, 0.5), "ms"},
		"plan_ms_p90":         {quantile(all, 0.9), "ms"},
		"replan_ms_p50":       {quantile(replans, 0.5), "ms"},
		"plan_cost_kusd_mean": {costSum / float64(len(passes[0].ops)) / 1000, "kUSD"},
		"alloc_mb_per_plan":   {float64(alloc) / float64(plans) / 1e6, "MB"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
	}
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// writeSidecars writes the run's fingerprint and, for a traced run, its
// spans under cfg.out.
func writeSidecars(cfg config, res *runResult) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)
	fp, err := json.MarshalIndent(res.fingerprint, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "fingerprint-"+base+".json"), append(fp, '\n'), 0o644); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return writeSpans(filepath.Join(cfg.out, "spans-"+base+".jsonl"), res.spans)
}
