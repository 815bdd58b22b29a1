package harness

import (
	"fmt"

	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/rt"
)

// The transport-equivalence guard is the real-transport backend's
// conformance oracle: the same application at the same shape must
// produce the same checksum on the deterministic simulator (netsim,
// virtual time) and on the real runtime (internal/rt over the loopback
// transport, wall time). The applications quantize every shared-sum
// contribution onto an exact binary grid (apps.qfix), which makes their
// accumulations associative in float64 — so any CORRECT release-
// consistent execution yields a bit-identical checksum regardless of
// message timing, and a checksum difference is a coherence bug, not
// floating-point noise.
//
// Two observables are compared. First the checksum. Second, the
// backend-invariant sync counters (lock acquires/releases, barrier and
// local-barrier arrivals, reductions; metrics.BackendInvariantCounters):
// each is incremented exactly once per application-level call, so the
// program — not the protocol — determines them and they must match
// exactly across backends. Everything else (wall time, wait
// breakdowns, fault and message counts) is exempt by design: the
// simulator charges the paper's calibrated costs in deterministic
// virtual time under a lazy protocol, while the real runtime pays
// actual wall time under a home-based eager one — those numbers
// measure different machines and are not comparable. See DESIGN.md
// §11.

// GuardTransportEquivalence runs app at the given shape on both the
// simulator and the rt-loopback backend and returns an error unless
// the checksums match exactly (both runs must also verify against the
// app's sequential reference) and every backend-invariant sync counter
// agrees. A nil error is the conformance verdict.
func GuardTransportEquivalence(app string, size apps.Size, nodes, threads int) error {
	out, err := RunCells([]Cell{{App: app, Nodes: nodes, Threads: threads, Label: "on sim", Metrics: true}}, size, nil, 1)
	if err != nil {
		return err
	}
	simSum := out[0].Checksum

	rcfg := rt.DefaultConfig(nodes, threads)
	rcfg.Metrics = rt.NewMetrics()
	_, rtSum, err := apps.RunLoopback(app, size, rcfg)
	if err != nil {
		return fmt.Errorf("harness: loopback backend: %w", err)
	}
	if rtSum != simSum {
		return fmt.Errorf("harness: transport equivalence violation in %s %dx%d: loopback checksum %v, sim %v",
			app, nodes, threads, rtSum, simSum)
	}
	simCounts := out[0].Snapshot.CounterValues()
	rtCounts := rcfg.Metrics.Snapshot().CounterValues()
	for _, name := range metrics.BackendInvariantCounters() {
		if simCounts[name] != rtCounts[name] {
			return fmt.Errorf("harness: transport equivalence violation in %s %dx%d: %s is %d on loopback, %d on sim",
				app, nodes, threads, name, rtCounts[name], simCounts[name])
		}
	}
	return nil
}
