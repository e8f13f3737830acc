package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFingerprintRepeats runs one pass of every workload twice, each in
// a fresh set-up, and requires the two work fingerprints to be equal
// byte for byte: at Workers=1 under a node budget the nodes, pivots,
// model sizes, plan costs and serve counters depend only on the program
// and the seed.
func TestFingerprintRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("plans whole estate sets")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var prints [2]string
			for i := range prints {
				var out, errs bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.001", "--out", t.TempDir()}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("run %d exited %d: %s", i+1, code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "fingerprint ") {
					t.Fatalf("run %d printed no fingerprint:\n%s", i+1, out.String())
				}
				if !strings.HasPrefix(lines[len(lines)-1], `{"correct":true,`) {
					t.Fatalf("run %d was not correct:\n%s\n%s", i+1, lines[len(lines)-1], errs.String())
				}
				prints[i] = lines[len(lines)-2]
			}
			if prints[0] != prints[1] {
				t.Errorf("fingerprints differ:\n%s\n%s", prints[0], prints[1])
			}
		})
	}
}
