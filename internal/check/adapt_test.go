package check_test

import (
	"testing"

	"cvm/internal/core"
	"cvm/internal/trace"
)

// upd makes a mode-change event declare update mode, the only mode
// -adapt promotes a page to.
func upd(e *trace.Event) { e.Arg = int64(core.ModeMWUpd) }

func TestModeEpochMonotone(t *testing.T) {
	// A replayed notice (same epoch) rolls nothing forward.
	c := feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(2), upd),
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(2), upd),
	)
	wantViolation(t, c, "mode-epoch-monotone")

	// A reordered notice (older epoch after newer) rolls backwards.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(5)),
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(4), upd),
	)
	wantViolation(t, c, "mode-epoch-monotone")

	// Distinct pages and distinct nodes have independent epoch chains.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(2), upd),
		ev(trace.KindModeChange, 0, page(4), peer(1), aux(2), upd),
		ev(trace.KindModeChange, 1, page(3), peer(1), aux(2), upd),
		ev(trace.KindModeChange, 0, page(3), peer(1), aux(3)),
	)
	if c.Count() != 0 {
		t.Fatalf("independent chains flagged: %v", c.Violations())
	}
}

func TestModeAgree(t *testing.T) {
	// Two nodes applying the same epoch must see the same declaration.
	c := feed(2, 1,
		ev(trace.KindModeChange, 0, page(7), peer(0), aux(3), upd),
		ev(trace.KindModeChange, 1, page(7), peer(1), aux(3), upd), // different producer
	)
	wantViolation(t, c, "mode-agree")

	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(7), peer(0), aux(3), upd),
		ev(trace.KindModeChange, 1, page(7), peer(0), aux(3), arg(0)), // different mode
	)
	wantViolation(t, c, "mode-agree")

	// The same declaration everywhere is agreement.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(7), peer(0), aux(3), upd),
		ev(trace.KindModeChange, 1, page(7), peer(0), aux(3), upd),
	)
	if c.Count() != 0 {
		t.Fatalf("agreeing notices flagged: %v", c.Violations())
	}
}
