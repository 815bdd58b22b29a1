package check_test

import (
	"strings"
	"testing"

	"cvm/internal/check"
	"cvm/internal/core"
	"cvm/internal/netsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// ev builds a violation-test event tersely.
func ev(k trace.Kind, node int32, mut ...func(*trace.Event)) trace.Event {
	e := trace.Event{Kind: k, Node: node, Thread: -1, Page: -1}
	for _, m := range mut {
		m(&e)
	}
	return e
}

func page(p int32) func(*trace.Event)   { return func(e *trace.Event) { e.Page = p } }
func syncID(s int32) func(*trace.Event) { return func(e *trace.Event) { e.Sync = s } }
func thread(t int32) func(*trace.Event) { return func(e *trace.Event) { e.Thread = t } }
func peer(p int32) func(*trace.Event)   { return func(e *trace.Event) { e.Peer = p } }
func aux(a int64) func(*trace.Event)    { return func(e *trace.Event) { e.Aux = a } }
func arg(a int64) func(*trace.Event)    { return func(e *trace.Event) { e.Arg = a } }

// feed runs a stream through a fresh checker and returns it.
func feed(nodes, threads int, events ...trace.Event) *check.Checker {
	c := check.New(nodes, threads)
	for _, e := range events {
		c.Emit(e)
	}
	return c
}

// wantViolation asserts exactly one violation naming the invariant.
func wantViolation(t *testing.T, c *check.Checker, invariant string) {
	t.Helper()
	vs := c.Violations()
	if c.Count() != 1 || len(vs) != 1 {
		t.Fatalf("got %d violations (%d detailed), want exactly 1: %v", c.Count(), len(vs), vs)
	}
	if vs[0].Invariant != invariant {
		t.Errorf("violation invariant = %q, want %q (detail: %s)", vs[0].Invariant, invariant, vs[0].Detail)
	}
}

func TestCleanStreamNoViolations(t *testing.T) {
	c := feed(2, 1,
		// A full twin→diff→apply cycle.
		ev(trace.KindTwinCreate, 0, page(3), thread(0)),
		ev(trace.KindDiffCreate, 0, page(3), aux(1)),
		ev(trace.KindDiffApply, 1, page(3), peer(0), arg(1)),
		// Same page, next interval.
		ev(trace.KindTwinCreate, 0, page(3), thread(0)),
		ev(trace.KindDiffCreate, 0, page(3), aux(2)),
		ev(trace.KindDiffApply, 1, page(3), peer(0), arg(2)),
		// Lock handoff.
		ev(trace.KindLockAcquire, 0, syncID(7), thread(0)),
		ev(trace.KindLockRelease, 0, syncID(7), thread(0)),
		ev(trace.KindLockAcquire, 1, syncID(7), thread(1)),
		ev(trace.KindLockRelease, 1, syncID(7), thread(1)),
		// One global barrier epoch: 2 nodes × 1 thread arrive, 2 releases.
		ev(trace.KindBarrierArrive, 0, syncID(9), thread(0)),
		ev(trace.KindBarrierArrive, 1, syncID(9), thread(1)),
		ev(trace.KindBarrierRelease, 0, syncID(9)),
		ev(trace.KindBarrierRelease, 1, syncID(9)),
	)
	c.Finish()
	if c.Count() != 0 {
		t.Fatalf("clean stream produced %d violations: %v", c.Count(), c.Violations())
	}
	if c.Err() != nil {
		t.Errorf("Err() = %v on a clean run, want nil", c.Err())
	}
}

func TestTwinUnique(t *testing.T) {
	c := feed(1, 1,
		ev(trace.KindTwinCreate, 0, page(4)),
		ev(trace.KindTwinCreate, 0, page(4)),
	)
	wantViolation(t, c, "twin-unique")
}

func TestIntervalMonotone(t *testing.T) {
	c := feed(1, 1,
		ev(trace.KindTwinCreate, 0, page(1)),
		ev(trace.KindDiffCreate, 0, page(1), aux(5)),
		ev(trace.KindTwinCreate, 0, page(2)),
		ev(trace.KindDiffCreate, 0, page(2), aux(4)), // runs backwards
	)
	wantViolation(t, c, "interval-monotone")
}

func TestDiffUnique(t *testing.T) {
	c := feed(1, 1,
		ev(trace.KindTwinCreate, 0, page(1)),
		ev(trace.KindDiffCreate, 0, page(1), aux(3)),
		ev(trace.KindTwinCreate, 0, page(1)),
		ev(trace.KindDiffCreate, 0, page(1), aux(3)), // same interval twice
	)
	wantViolation(t, c, "diff-unique")
}

func TestTwinDiffPairing(t *testing.T) {
	c := feed(1, 1,
		ev(trace.KindDiffCreate, 0, page(1), aux(1)), // no outstanding twin
	)
	wantViolation(t, c, "twin-diff-pairing")
}

func TestDiffApplyOnce(t *testing.T) {
	c := feed(2, 1,
		ev(trace.KindDiffApply, 1, page(6), peer(0), arg(2)),
		ev(trace.KindDiffApply, 1, page(6), peer(0), arg(2)), // replay
	)
	wantViolation(t, c, "diff-apply-hb")
}

func TestDiffApplyOrder(t *testing.T) {
	c := feed(2, 1,
		ev(trace.KindDiffApply, 1, page(6), peer(0), arg(3)),
		ev(trace.KindDiffApply, 1, page(6), peer(0), arg(2)), // older interval after newer
	)
	wantViolation(t, c, "diff-apply-hb")
}

// writeUnderLock is node's critical section on lock 5: it acquires the
// lock, closes interval idx over page 6, and releases.
func writeUnderLock(node int32, idx int64) []trace.Event {
	return []trace.Event{
		ev(trace.KindLockAcquire, node, syncID(5), thread(node)),
		ev(trace.KindTwinCreate, node, page(6), thread(node)),
		ev(trace.KindDiffCreate, node, page(6), aux(idx)),
		ev(trace.KindLockRelease, node, syncID(5), thread(node)),
	}
}

// TestDiffApplyHB: two writers' diffs of one page, ordered by a lock
// handoff (or by a barrier), must apply in that order at a third node;
// concurrent ones may apply in either.
func TestDiffApplyHB(t *testing.T) {
	ordered := append(writeUnderLock(0, 1), writeUnderLock(1, 1)...) // (0,1) hb (1,1)
	apply := func(writer int32) trace.Event {
		return ev(trace.KindDiffApply, 2, page(6), peer(writer), arg(1))
	}
	c := feed(3, 1, append(ordered, apply(0), apply(1))...)
	if c.Count() != 0 {
		t.Fatalf("in-order application flagged: %v", c.Violations())
	}
	wantViolation(t, feed(3, 1, append(ordered, apply(1), apply(0))...), "diff-apply-hb")

	// Through a barrier: both nodes arrive and are released, then node 1
	// writes; node 0's earlier interval happens-before node 1's.
	barrier := []trace.Event{
		ev(trace.KindTwinCreate, 0, page(6), thread(0)),
		ev(trace.KindDiffCreate, 0, page(6), aux(1)),
		ev(trace.KindBarrierArrive, 0, syncID(9), thread(0)),
		ev(trace.KindBarrierArrive, 1, syncID(9), thread(1)),
		ev(trace.KindBarrierArrive, 2, syncID(9), thread(2)),
		ev(trace.KindBarrierRelease, 0, syncID(9)),
		ev(trace.KindBarrierRelease, 1, syncID(9)),
		ev(trace.KindBarrierRelease, 2, syncID(9)),
		ev(trace.KindTwinCreate, 1, page(6), thread(1)),
		ev(trace.KindDiffCreate, 1, page(6), aux(1)),
	}
	wantViolation(t, feed(3, 1, append(barrier, apply(1), apply(0))...), "diff-apply-hb")

	// Concurrent writers: no sync edge between them, either order is fine.
	concurrent := []trace.Event{
		ev(trace.KindTwinCreate, 0, page(6), thread(0)),
		ev(trace.KindDiffCreate, 0, page(6), aux(1)),
		ev(trace.KindTwinCreate, 1, page(6), thread(1)),
		ev(trace.KindDiffCreate, 1, page(6), aux(1)),
	}
	if c := feed(3, 1, append(concurrent, apply(1), apply(0))...); c.Count() != 0 {
		t.Fatalf("concurrent diffs flagged: %v", c.Violations())
	}
}

func TestLockUniqueHolder(t *testing.T) {
	c := feed(2, 1,
		ev(trace.KindLockAcquire, 0, syncID(5), thread(0)),
		ev(trace.KindLockAcquire, 1, syncID(5), thread(1)), // double grant
	)
	wantViolation(t, c, "lock-unique-holder")

	c = feed(2, 1,
		ev(trace.KindLockRelease, 0, syncID(5), thread(0)), // never held
	)
	wantViolation(t, c, "lock-unique-holder")

	c = feed(2, 1,
		ev(trace.KindLockAcquire, 0, syncID(5), thread(0)),
		ev(trace.KindLockRelease, 1, syncID(5), thread(1)), // wrong holder
	)
	wantViolation(t, c, "lock-unique-holder")
}

func TestBarrierEpochRelease(t *testing.T) {
	// Release with no completed epoch.
	c := feed(2, 2,
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
	)
	wantViolation(t, c, "barrier-epoch")

	// Extra release after a complete epoch drained.
	c = feed(1, 1,
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
	)
	wantViolation(t, c, "barrier-epoch")
}

func TestBarrierEpochInterleave(t *testing.T) {
	// Releases of epoch k may interleave with arrivals of epoch k+1: a
	// released node races to the next barrier while another node's
	// release is still in flight. This is legal.
	c := feed(2, 1,
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)),
		ev(trace.KindBarrierArrive, 1, syncID(1), thread(1)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)), // next epoch, early
		ev(trace.KindBarrierRelease, 1, syncID(1)),           // epoch 1's last release
		ev(trace.KindBarrierArrive, 1, syncID(1), thread(1)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
		ev(trace.KindBarrierRelease, 1, syncID(1)),
	)
	c.Finish()
	if c.Count() != 0 {
		t.Fatalf("legal interleaving flagged: %v", c.Violations())
	}
}

func TestLocalBarrier(t *testing.T) {
	local := func(e *trace.Event) { e.Aux = 1 }
	// Clean: both threads of the node arrive, then release.
	c := feed(2, 2,
		ev(trace.KindBarrierArrive, 0, syncID(3), thread(0), local),
		ev(trace.KindBarrierArrive, 0, syncID(3), thread(1), local),
		ev(trace.KindBarrierRelease, 0, syncID(3), thread(1), local),
	)
	c.Finish()
	if c.Count() != 0 {
		t.Fatalf("clean local barrier flagged: %v", c.Violations())
	}

	// Early release: only one of two threads arrived.
	c = feed(2, 2,
		ev(trace.KindBarrierArrive, 0, syncID(3), thread(0), local),
		ev(trace.KindBarrierRelease, 0, syncID(3), thread(0), local),
	)
	wantViolation(t, c, "barrier-epoch")
}

// TestReductionArrivalsSkipped: a reduction's arrivals carry Aux
// BarrierReduce and have no traced release, so barrier-epoch must not
// count them, not even on a barrier's id.
func TestReductionArrivalsSkipped(t *testing.T) {
	reduce := func(e *trace.Event) { e.Aux = trace.BarrierReduce }
	c := feed(2, 1,
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0), reduce),
		ev(trace.KindBarrierArrive, 1, syncID(1), thread(1), reduce),
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)),
		ev(trace.KindBarrierArrive, 1, syncID(1), thread(1)),
		ev(trace.KindBarrierRelease, 0, syncID(1)),
		ev(trace.KindBarrierRelease, 1, syncID(1)),
	)
	c.Finish()
	if c.Count() != 0 {
		t.Fatalf("reduction arrivals flagged: %v", c.Violations())
	}
}

func TestFinishMidEpoch(t *testing.T) {
	c := feed(2, 1,
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(0)), // 1 of 2 arrivals
	)
	c.Finish()
	wantViolation(t, c, "barrier-epoch")

	c = feed(2, 2,
		ev(trace.KindBarrierArrive, 0, syncID(3), thread(0), func(e *trace.Event) { e.Aux = 1 }),
	)
	c.Finish()
	wantViolation(t, c, "barrier-epoch")
}

func TestDetailCapAndReport(t *testing.T) {
	c := check.New(1, 1)
	const n = 1500
	for i := 0; i < n; i++ {
		c.Emit(ev(trace.KindLockRelease, 0, syncID(1))) // never held, violates every time
	}
	if c.Count() != n {
		t.Errorf("Count() = %d, want %d", c.Count(), n)
	}
	if got := len(c.Violations()); got >= n {
		t.Errorf("detailed violations = %d, want capped below %d", got, n)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "1500") {
		t.Errorf("Err() = %v, want summary naming all 1500", err)
	}
	var b strings.Builder
	c.Report(&b)
	if !strings.Contains(b.String(), "1500 violation(s)") {
		t.Errorf("Report missing total:\n%s", b.String()[:120])
	}
}

func TestViolationString(t *testing.T) {
	v := check.Violation{T: 5 * sim.Millisecond, Node: 2, Page: 7, Invariant: "diff-unique", Detail: "x"}
	s := v.String()
	for _, want := range []string{"node=2", "page=7", "diff-unique"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	v.Page = -1
	if strings.Contains(v.String(), "page=") {
		t.Errorf("String() = %q, should omit page when -1", v.String())
	}
}

// TestCheckerOnFaultedRun attaches the checker to a real cluster running
// the chained-accumulation workload under heavy network faults: every
// invariant must hold while the fault model drops, duplicates, and
// reorders its messages.
func TestCheckerOnFaultedRun(t *testing.T) {
	const nodes, threads = 4, 2
	fp := &core.FaultPlan{Net: netsim.FaultParams{
		Seed:         3,
		JitterMax:    200 * sim.Microsecond,
		ReorderDelay: 2 * sim.Millisecond,
	}}
	for c := 0; c < netsim.NumClasses; c++ {
		fp.Net.Drop[c] = 0.05
		fp.Net.Dup[c] = 0.05
		fp.Net.Reorder[c] = 0.05
	}

	chk := check.New(nodes, threads)
	cfg := core.DefaultConfig(nodes, threads)
	cfg.Tracer = chk
	cfg.Faults = fp
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := s.Alloc("counters", 8192)
	at := func(i int) core.Addr { return addr + core.Addr(i*8) }
	err = s.Start(func(w *core.Thread) {
		w.Barrier(0)
		for r := 0; r < 2; r++ {
			for k := 0; k < 8; k++ {
				w.Lock(10 + k)
				w.WriteF64(at(k), w.ReadF64(at(k))+float64(w.GlobalID()+1))
				w.Unlock(10 + k)
			}
			w.Barrier(100 + r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if chk.Count() != 0 {
		t.Fatalf("faulted run violated %d invariant(s):\n%v", chk.Count(), chk.Err())
	}
	if s.Stats().Total.Retransmits == 0 {
		t.Error("heavy-fault run recorded no retransmissions (faults not exercised)")
	}
}
