package check_test

import (
	"slices"
	"strings"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/trace"
)

// auditor is what the differential tests read off a checker: the
// Checker and the map-based reference it replaced (check_ref_test.go).
type auditor interface {
	trace.Tracer
	Finish()
	Violations() []check.Violation
	Count() int
	Report(*strings.Builder)
}

func report(a auditor) string {
	var b strings.Builder
	a.Report(&b)
	return b.String()
}

// requireSameAudit holds two checkers fed the same stream to the same
// verdict: the same violations in the same order, the same count and the
// same report. What Finish adds is compared as a set, because the
// reference's Finish ranges over maps.
func requireSameAudit(t *testing.T, name string, got, want auditor) {
	t.Helper()
	if !slices.Equal(got.Violations(), want.Violations()) || got.Count() != want.Count() {
		t.Fatalf("%s: %d violations (%d detailed), the reference %d (%d detailed)\n got  %v\n want %v",
			name, got.Count(), len(got.Violations()), want.Count(), len(want.Violations()),
			head(got.Violations()), head(want.Violations()))
	}
	if g, w := report(got), report(want); g != w {
		t.Fatalf("%s: reports differ:\n%s\nreference:\n%s", name, g, w)
	}
	before := len(got.Violations())
	got.Finish()
	want.Finish()
	tail := func(a auditor) []string {
		var out []string
		for _, v := range a.Violations()[before:] {
			out = append(out, v.String())
		}
		slices.Sort(out)
		return out
	}
	if g, w := tail(got), tail(want); got.Count() != want.Count() || !slices.Equal(g, w) {
		t.Fatalf("%s: Finish adds %d violations, the reference %d:\n got  %v\n want %v",
			name, got.Count()-before, want.Count()-before, g, w)
	}
}

type counter int

func (n *counter) Emit(trace.Event) { *n++ }

func head(vs []check.Violation) []check.Violation { return vs[:min(len(vs), 5)] }

// feedBoth runs a stream through a fresh checker and a fresh reference.
func feedBoth(t *testing.T, name string, nodes, threads int, events []trace.Event) {
	t.Helper()
	got, want := check.New(nodes, threads), check.NewCheckerRef(nodes, threads)
	for _, e := range events {
		got.Emit(e)
		want.Emit(e)
	}
	requireSameAudit(t, name, got, want)
}

// TestCheckerMatchesReferenceOnRuns feeds recorded protocol streams to
// both checkers: the seven applications at 4x2 test size, scaleout at
// 64x1 and an -adapt run.
func TestCheckerMatchesReferenceOnRuns(t *testing.T) {
	type run struct {
		app            string
		nodes, threads int
		adapt          bool
	}
	var runs []run
	for _, name := range apps.Names() {
		if name != "scaleout" {
			runs = append(runs, run{app: name, nodes: 4, threads: 2})
		}
	}
	runs = append(runs, run{app: "scaleout", nodes: 64, threads: 1}, run{app: "sor", nodes: 4, threads: 2, adapt: true})
	for _, r := range runs {
		got, want := check.New(r.nodes, r.threads), check.NewCheckerRef(r.nodes, r.threads)
		cfg := cvm.DefaultConfig(r.nodes, r.threads)
		cfg.Adapt = r.adapt
		var n counter
		cfg.Tracer = trace.Tee(got, want, &n)
		if _, _, err := apps.RunConfig(r.app, apps.SizeTest, cfg); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s emitted no events", r.app)
		}
		requireSameAudit(t, r.app, got, want)
	}
}

// TestCheckerMatchesReferenceOnBrokenStreams breaks each invariant on
// purpose, then feeds random streams over small id ranges that break
// all of them many times over, past the detail cap.
func TestCheckerMatchesReferenceOnBrokenStreams(t *testing.T) {
	local := func(e *trace.Event) { e.Aux = trace.BarrierLocal }
	for name, s := range map[string][]trace.Event{
		"twin-unique": {ev(trace.KindTwinCreate, 0, page(4)), ev(trace.KindTwinCreate, 0, page(4))},
		"interval-monotone": {
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(5)),
			ev(trace.KindTwinCreate, 0, page(2)), ev(trace.KindDiffCreate, 0, page(2), aux(4)),
		},
		"duplicate diff at an older interval": {
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(2)),
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(3)),
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(2)),
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(1)),
			ev(trace.KindTwinCreate, 0, page(1)), ev(trace.KindDiffCreate, 0, page(1), aux(1)),
		},
		"twin-diff-pairing": {ev(trace.KindDiffCreate, 0, page(1), aux(1)), ev(trace.KindDiffCreate, 0, page(1), aux(2))},
		"replayed diff.apply": {
			ev(trace.KindTwinCreate, 0, page(6)), ev(trace.KindDiffCreate, 0, page(6), aux(1)),
			ev(trace.KindDiffApply, 1, page(6), peer(0), arg(1)), ev(trace.KindDiffApply, 1, page(6), peer(0), arg(1)),
			ev(trace.KindDiffApply, 1, page(6), peer(0), arg(0)), ev(trace.KindDiffApply, 1, page(6), peer(0), arg(-3)),
		},
		"diff-apply-hb": append(append(writeUnderLock(0, 1), writeUnderLock(1, 1)...),
			ev(trace.KindDiffApply, 2, page(6), peer(1), arg(1)), ev(trace.KindDiffApply, 2, page(6), peer(0), arg(1))),
		"lock-unique-holder": {
			ev(trace.KindLockAcquire, 0, syncID(5), thread(0)), ev(trace.KindLockAcquire, 1, syncID(5), thread(1)),
			ev(trace.KindLockRelease, 0, syncID(5), thread(0)), ev(trace.KindLockRelease, 0, syncID(5), thread(0)),
		},
		"barrier-epoch": {
			ev(trace.KindBarrierRelease, 0, syncID(1)),
			ev(trace.KindBarrierArrive, 0, syncID(2), thread(0)), ev(trace.KindBarrierArrive, 1, syncID(2), thread(1)),
			ev(trace.KindBarrierArrive, 2, syncID(2), thread(2)), ev(trace.KindBarrierArrive, 0, syncID(2), thread(0)),
			ev(trace.KindBarrierArrive, 0, syncID(3), thread(0), local), ev(trace.KindBarrierRelease, 0, syncID(3), local),
			ev(trace.KindBarrierRelease, 1, syncID(4), local),
		},
		"mode-epoch-monotone and mode-agree": {
			ev(trace.KindModeChange, 0, page(3), peer(1), aux(2), upd), ev(trace.KindModeChange, 0, page(3), peer(1), aux(2), upd),
			ev(trace.KindModeChange, 1, page(3), peer(0), aux(2)), ev(trace.KindModeChange, 1, page(3), peer(1), aux(1)),
		},
	} {
		feedBoth(t, name, 3, 1, s)
	}
	// Short streams stay under the detail cap; long ones run far past it.
	for seed := uint64(1); seed <= 40; seed++ {
		n := 1500
		if seed%10 == 0 {
			n = 20_000
		}
		feedBoth(t, "random", 3, 2, randomStream(seed, n, 3, 2))
	}
}

// randomStream draws n checker-relevant events from small id ranges, so
// twins, diffs, applies, locks and barriers collide on the same keys.
func randomStream(seed uint64, n, nodes, threads int) []trace.Event {
	x := seed
	rnd := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(mod))
	}
	kinds := []trace.Kind{
		trace.KindTwinCreate, trace.KindDiffCreate, trace.KindDiffApply, trace.KindLockAcquire,
		trace.KindLockRelease, trace.KindBarrierArrive, trace.KindBarrierRelease, trace.KindModeChange,
	}
	out := make([]trace.Event, n)
	for i := range out {
		node := rnd(nodes)
		e := trace.Event{
			Kind:   kinds[rnd(len(kinds))],
			T:      cvm.Time(i),
			Node:   int32(node),
			Thread: int32(node*threads + rnd(threads)),
			Page:   int32(rnd(4)),
			Sync:   int32(rnd(3)),
			Peer:   int32(rnd(nodes)),
			Arg:    int64(rnd(3)),
			Aux:    int64(rnd(3)),
		}
		switch e.Kind {
		case trace.KindDiffCreate:
			e.Aux = int64(i/50 + rnd(8)) // intervals creep up, with repeats and steps back
		case trace.KindDiffApply:
			e.Arg = int64(i/50 + rnd(12) - 6) // some not created yet, a few below 0
		case trace.KindModeChange:
			e.Aux, e.Arg, e.Peer = int64(rnd(5)), int64(rnd(2)), int32(rnd(nodes+1)-1)
		}
		out[i] = e
	}
	return out
}

// TestFinishReportDeterministic leaves three global and two local
// barriers mid-epoch. Reported in map order they would make Err's first
// lines and the chaos artifact differ from run to run; they must come
// out global by id, then local by (node, id), every time.
func TestFinishReportDeterministic(t *testing.T) {
	local := func(e *trace.Event) { e.Aux = trace.BarrierLocal }
	stream := []trace.Event{
		ev(trace.KindBarrierArrive, 1, syncID(3), thread(2), local),
		ev(trace.KindBarrierArrive, 0, syncID(9), thread(0)),
		ev(trace.KindBarrierArrive, 0, syncID(4), thread(0)),
		ev(trace.KindBarrierArrive, 0, syncID(1), thread(1), local),
		ev(trace.KindBarrierArrive, 1, syncID(7), thread(2)),
	}
	var first string
	for i := 0; i < 20; i++ {
		c := feed(2, 2, stream...)
		c.Finish()
		var b strings.Builder
		c.Report(&b)
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("checker %d reports\n%s\nthe first\n%s", i, b.String(), first)
		}
	}
	var ids []string
	for _, line := range strings.Split(first, "\n")[1:] {
		if i := strings.Index(line, "barrier "); i >= 0 {
			ids = append(ids, line[i:strings.Index(line, " mid-epoch")])
		}
	}
	want := []string{"barrier 4", "barrier 7", "barrier 9", "barrier 1 on node 0", "barrier 3 on node 1"}
	if !slices.Equal(ids, want) {
		t.Fatalf("Finish reports %q, want %q", ids, want)
	}
}
