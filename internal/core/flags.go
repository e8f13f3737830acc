package core

import (
	"flag"
	"fmt"
	"time"
)

// Set implements flag.Value, so -formulation parses straight into
// Options.Formulation.
func (f *Formulation) Set(s string) error {
	switch s {
	case "pair":
		*f = FormulationPair
	case "paper":
		*f = FormulationPaper
	default:
		return fmt.Errorf("unknown formulation %q", s)
	}
	return nil
}

// RegisterFlags registers the solve flags shared by the etransform and
// etserve commands on fs and returns the Options they fill in when fs is
// parsed. Callers add their own hooks (trace, metrics, fault injection)
// to Solver afterwards.
func RegisterFlags(fs *flag.FlagSet) *Options {
	o := &Options{Formulation: FormulationPair}
	s := &o.Solver
	fs.BoolVar(&o.DR, "dr", false, "plan disaster recovery (secondary sites + shared backup pool)")
	fs.BoolVar(&o.DedicatedBackups, "dedicated", false, "with -dr: dedicated per-group backup servers (multi-failure planning) instead of the shared single-failure pool")
	fs.BoolVar(&o.ComputeShadowPrices, "shadow", false, "report capacity shadow prices (LP-relaxation duals per data center)")
	fs.Float64Var(&o.Omega, "omega", 0, "business-impact cap: max fraction of app groups per data center (0 disables)")
	fs.BoolVar(&o.Aggregate, "aggregate", true, "aggregate identical application groups (exact reformulation)")
	fs.IntVar(&o.CandidateK, "candidates", 0, "restrict each group to its K cheapest candidate DCs (0 = all)")
	fs.Var(&o.Formulation, "formulation", `DR formulation: "pair" (scalable) or "paper" (literal §IV-B)`)
	fs.Float64Var(&s.GapTol, "gap", 1e-3, "MILP relative optimality gap")
	fs.IntVar(&s.MaxNodes, "nodes", 20000, "branch & bound node limit per solve")
	fs.DurationVar(&s.TimeLimit, "timelimit", 5*time.Minute, "wall-clock limit per solve")
	fs.Int64Var(&s.Budget.MemoryBytes, "membudget", 0, "open-node queue memory budget in bytes (0 = unlimited)")
	fs.IntVar(&s.Workers, "workers", 0, "branch & bound worker goroutines per solve (0 = all CPUs, 1 = deterministic)")
	fs.BoolVar(&s.ReuseBasis, "warmlp", false, "warm-start node LPs from the parent's simplex basis (same answer, fewer pivots)")
	fs.BoolVar(&s.Cuts.Enable, "cuts", false, "separate Gomory and cover cuts at the root (same answer, tighter bound)")
	fs.BoolVar(&s.Kernel.Enable, "kernel", false, "run the kernel-search primal heuristic at the root (same answer, earlier incumbents)")
	return o
}
