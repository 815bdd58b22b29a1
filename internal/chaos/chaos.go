// Package chaos is the fault-injection proving ground for the DSM: it
// runs the full application suite under adversarial network schedules
// (drop, duplication, reordering, jitter, node pauses and slowdowns)
// with the protocol invariant checker attached, and asserts the two
// properties that follow from every fault being timing (the network
// hands each message to its handler exactly once, late or not):
//
//  1. correctness — every run reproduces the fault-free checksum bit
//     for bit, and
//  2. cleanliness — zero protocol invariant violations, ever.
//
// The suite is deterministic end to end: fault schedules are keyed by
// seed, so a failure reproduces from its (app, shape, spec, seed)
// coordinates alone. The fuzzer shrinks a failing schedule to a minimal
// one before reporting, and failures write a violation-report artifact
// for CI when CHAOS_ARTIFACT_DIR is set.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/harness"
)

// Result is one chaos run's outcome: the cell's result plus the
// checker, post-Finish (no violations listed on a clean run).
type Result struct {
	harness.CellResult
	Checker *check.Checker
}

// RunOne executes one cell with the invariant checker attached. c.Mut
// carries what the run is subjected to — a fault plan (none is the
// fault-free baseline), an engine mode, adaptive coherence — and
// c.Metrics additionally collects a snapshot. The checker observes
// through the engine's trace path (under the windowed engine that is
// the per-window demultiplexer, so events arrive in canonical order),
// making fault schedules an engine-parallelism determinism probe: rolls
// consume PRNG state in delivery order, so a nondeterministic commit
// would diverge visibly. Adaptation decisions are functions of per-epoch
// protocol observations, not of virtual timing, so a faulted adaptive
// run must still reproduce the fault-free checksum; the checker holds it
// to the adaptation invariants as well (mode-epoch monotonicity and
// cluster-wide mode agreement).
func RunOne(c harness.Cell, size apps.Size) (Result, error) {
	chk := check.New(c.Nodes, c.Threads)
	c = c.With(func(cfg *cvm.Config) { cfg.Tracer = chk })
	out, err := harness.RunCells([]harness.Cell{c}, size, nil, 1)
	if err != nil {
		return Result{Checker: chk}, err
	}
	chk.Finish()
	return Result{out[0], chk}, nil
}

// WriteViolationReport writes a violation-report artifact: the run's
// coordinates followed by every detailed violation, one per line. When
// CHAOS_ARTIFACT_DIR is unset it does nothing and returns "". CI
// uploads the directory on failure, so a red chaos job carries its own
// diagnosis.
func WriteViolationReport(name, context string, chk *check.Checker) (string, error) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", context)
	chk.Report(&b)
	path := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// splitmix64 steps the fuzzer's schedule PRNG (same generator family as
// the in-simulation fault rolls, independently seeded).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// schedRand derives the i-th uniform [0,1) draw of a seed's schedule.
func schedRand(seed uint64, i uint64) float64 {
	h := splitmix64(seed ^ splitmix64(i))
	return float64(h>>11) / float64(1<<53)
}

// RandomSpec derives a random-but-reproducible fault spec from a seed,
// exercising every injection dimension the -faults flag can express.
// The same seed always yields the same spec.
func RandomSpec(seed uint64) string {
	var parts []string
	add := func(s string, args ...any) { parts = append(parts, fmt.Sprintf(s, args...)) }
	// Probabilities in [0, 5%]: high enough to force retransmissions in
	// a SizeTest run, low enough to finish within the retry budget.
	add("drop=%.4f", 0.05*schedRand(seed, 0))
	add("dup=%.4f", 0.05*schedRand(seed, 1))
	add("reorder=%.4f", 0.05*schedRand(seed, 2))
	if schedRand(seed, 3) < 0.5 {
		add("jitter=%dus", 1+int(500*schedRand(seed, 4)))
	}
	if schedRand(seed, 5) < 0.3 {
		// Pause node 1 for up to 2ms somewhere in the first 20ms.
		add("pause=1:%dus:%dus", int(20000*schedRand(seed, 6)), 1+int(2000*schedRand(seed, 7)))
	}
	if schedRand(seed, 8) < 0.3 {
		add("slow=0:0s:%dms:%d", 5+int(20*schedRand(seed, 9)), 2+int(3*schedRand(seed, 10)))
	}
	return strings.Join(parts, ",")
}

// ShrinkSpec minimizes a failing fault spec: it repeatedly drops
// comma-separated items whose removal keeps stillFails true, returning
// the shortest schedule that still reproduces the failure. Determinism
// makes this sound — re-running a candidate spec is exact, not
// probabilistic.
func ShrinkSpec(spec string, stillFails func(spec string) bool) string {
	items := strings.Split(spec, ",")
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(items); i++ {
			candidate := strings.Join(append(append([]string{}, items[:i]...), items[i+1:]...), ",")
			if stillFails(candidate) {
				items = strings.Split(candidate, ",")
				changed = true
				break
			}
		}
	}
	return strings.Join(items, ",")
}
