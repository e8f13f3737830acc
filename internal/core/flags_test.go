package core

import (
	"flag"
	"io"
	"testing"
	"time"
)

func parseFlags(t *testing.T, args ...string) (*Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := RegisterFlags(fs)
	return o, fs.Parse(args)
}

// TestRegisterFlagsDefaults pins the CLI defaults both commands share.
func TestRegisterFlagsDefaults(t *testing.T) {
	o, err := parseFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.Solver.GapTol != 1e-3 || o.Solver.MaxNodes != 20000 || o.Solver.TimeLimit != 5*time.Minute {
		t.Errorf("gap/nodes/timelimit = %g/%d/%v, want 1e-3/20000/5m", o.Solver.GapTol, o.Solver.MaxNodes, o.Solver.TimeLimit)
	}
	if !o.Aggregate || o.Formulation != FormulationPair || o.Solver.Workers != 0 {
		t.Errorf("aggregate/formulation/workers = %v/%v/%d, want true/pair/0", o.Aggregate, o.Formulation, o.Solver.Workers)
	}
	if o.DR || o.DedicatedBackups || o.ComputeShadowPrices || o.Omega != 0 || o.CandidateK != 0 ||
		o.Solver.ReuseBasis || o.Solver.Cuts.Enable || o.Solver.Kernel.Enable || o.Solver.Budget.MemoryBytes != 0 {
		t.Errorf("an optional feature is on by default: %+v", *o)
	}
}

func TestRegisterFlagsBadFormulation(t *testing.T) {
	if _, err := parseFlags(t, "-formulation", "bogus"); err == nil {
		t.Fatal("-formulation bogus accepted")
	}
}

func TestRegisterFlagsSetFields(t *testing.T) {
	o, err := parseFlags(t, "-dr", "-formulation", "paper", "-cuts", "-kernel", "-warmlp")
	if err != nil {
		t.Fatal(err)
	}
	if !o.DR || o.Formulation != FormulationPaper || !o.Solver.Cuts.Enable || !o.Solver.Kernel.Enable || !o.Solver.ReuseBasis {
		t.Errorf("dr/formulation/cuts/kernel/warmlp = %v/%v/%v/%v/%v, want all set",
			o.DR, o.Formulation, o.Solver.Cuts.Enable, o.Solver.Kernel.Enable, o.Solver.ReuseBasis)
	}
}
