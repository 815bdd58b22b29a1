package harness

import (
	"testing"

	"cvm"
	"cvm/internal/apps"
)

// TestGuardDeterminismFaultFree proves byte-identical artifacts across
// three worker counts on a fault-free run (the acceptance bar).
func TestGuardDeterminismFaultFree(t *testing.T) {
	if err := GuardDeterminism("sor", apps.SizeTest, 4, 4, []int{1, 2, 4}, nil); err != nil {
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
	if err := GuardDeterminism("waternsq", apps.SizeTest, 4, 2, []int{1, 2, 4}, fp); err != nil {
		t.Fatal(err)
	}
}

// TestGuardDeterminismAdaptive holds adapted runs to the same bar: with
// per-page mode switching on, every artifact —
// checksum, statistics, metrics report, Chrome trace — must stay
// byte-identical across worker counts and across repeated runs (the
// duplicated leading count), fault-free.
func TestGuardDeterminismAdaptive(t *testing.T) {
	for _, app := range []string{"sor", "barnes"} {
		if err := GuardDeterminismAdaptive(app, apps.SizeTest, 4, 2, []int{1, 1, 2, 4}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGuardDeterminismAdaptiveUnderFaults is the adapted variant of the
// fault-schedule guard: retransmission timing must not leak into the
// classifier's observations.
func TestGuardDeterminismAdaptiveUnderFaults(t *testing.T) {
	fp, err := cvm.ParseFaults("drop=0.02,dup=0.01,reorder=0.02,jitter=300us", 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := GuardDeterminismAdaptive("sor", apps.SizeTest, 4, 2, []int{1, 1, 2, 4}, fp); err != nil {
		t.Fatal(err)
	}
}
