package harness

import (
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
	"cvm/internal/netsim"
	"cvm/internal/sim"
)

func withFaults(fp *cvm.FaultPlan) func(*cvm.Config) {
	return func(cfg *cvm.Config) { cfg.Faults = fp }
}

// TestGuardDeterminismFaultFree proves byte-identical artifacts across
// three worker counts on a fault-free run (the acceptance bar).
func TestGuardDeterminismFaultFree(t *testing.T) {
	if err := GuardDeterminism(Cell{App: "sor", Nodes: 4, Threads: 4}, apps.SizeTest, []int{1, 2, 4}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGuardDeterminismUnderFaults proves the same identity under an
// adversarial fault schedule: fault rolls consume PRNG state in
// delivery order, so any commit-order nondeterminism would surface as
// divergent retransmission counts or checksums.
func TestGuardDeterminismUnderFaults(t *testing.T) {
	fp, err := cvm.ParseFaults("drop=0.02,dup=0.01,reorder=0.02,jitter=300us", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := GuardDeterminism(Cell{App: "waternsq", Nodes: 4, Threads: 2, Mut: withFaults(fp)}, apps.SizeTest, []int{1, 2, 4}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGuardDeterminismRunAhead holds the sequential engine to one answer
// at run-ahead bounds 0, half the lookahead and the lookahead: the seven
// apps under LRC, the single-writer protocol, a fault plan and a 1 ms
// thread switch (longer than the lookahead), at 4×2, 8×1 and 8×4.
func TestGuardDeterminismRunAhead(t *testing.T) {
	if raceEnabled {
		t.Skip("252 probes skipped under the race detector; the sequential engine runs on one goroutine, and make par-check runs them")
	}
	fp, err := cvm.ParseFaults("drop=0.02,dup=0.01,reorder=0.02,jitter=300us", 42)
	if err != nil {
		t.Fatal(err)
	}
	la := netsim.DefaultParams().Lookahead()
	variants := []struct {
		name string
		mut  func(*cvm.Config)
	}{
		{"lrc", nil},
		{"sw", func(cfg *cvm.Config) { cfg.Protocol = core.ProtocolSW }},
		{"faults", withFaults(fp)},
		{"switch-1ms", func(cfg *cvm.Config) { cfg.SwitchCost = sim.Millisecond }},
	}
	for _, app := range AppOrder {
		for _, v := range variants {
			for _, shape := range [][2]int{{4, 2}, {8, 1}, {8, 4}} {
				c := Cell{App: app, Nodes: shape[0], Threads: shape[1], Mut: v.mut}
				if err := GuardDeterminism(c, apps.SizeTest, []int{0}, []sim.Time{0, la / 2, la}); err != nil {
					t.Errorf("%s: %v", v.name, err)
				}
			}
		}
	}
}
