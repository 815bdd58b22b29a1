package check_test

import (
	"testing"

	"cvm/internal/core"
	"cvm/internal/trace"
)

// The checker mirrors core.ModeExcl numerically (importing core would
// invert the dependency); this pins the mirrored value.
func TestModeValueMirrorsCore(t *testing.T) {
	if core.ModeExcl != 2 {
		t.Fatalf("core.ModeExcl = %d; update check.modeExcl to match", core.ModeExcl)
	}
}

func excl(e *trace.Event) { e.Arg = int64(core.ModeExcl) }

func TestModeEpochMonotone(t *testing.T) {
	// A replayed notice (same epoch) rolls nothing forward.
	c := feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(2)),
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(2)),
	)
	wantViolation(t, c, "mode-epoch-monotone")

	// A reordered notice (older epoch after newer) rolls backwards.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(5)),
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(4)),
	)
	wantViolation(t, c, "mode-epoch-monotone")

	// Distinct pages and distinct nodes have independent epoch chains.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(2)),
		ev(trace.KindModeChange, 0, page(4), peer(-1), aux(2)),
		ev(trace.KindModeChange, 1, page(3), peer(-1), aux(2)),
		ev(trace.KindModeChange, 0, page(3), peer(-1), aux(3)),
	)
	if c.Count() != 0 {
		t.Fatalf("independent chains flagged: %v", c.Violations())
	}
}

func TestModeAgree(t *testing.T) {
	// Two nodes applying the same epoch must see the same declaration.
	c := feed(2, 1,
		ev(trace.KindModeChange, 0, page(7), peer(0), aux(3), excl),
		ev(trace.KindModeChange, 1, page(7), peer(1), aux(3), excl), // different owner
	)
	wantViolation(t, c, "mode-agree")

	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(7), peer(-1), aux(3), arg(1)),
		ev(trace.KindModeChange, 1, page(7), peer(-1), aux(3), arg(0)), // different mode
	)
	wantViolation(t, c, "mode-agree")
}

func TestExclNoDiff(t *testing.T) {
	// Between an exclusive grant at the owner and the window close, the
	// owner must not commit an interval for the page. (The twin alone is
	// legal: closing the window creates one.)
	c := feed(2, 1,
		ev(trace.KindModeChange, 0, page(4), peer(0), aux(1), excl),
		ev(trace.KindTwinCreate, 0, page(4)),
		ev(trace.KindDiffCreate, 0, page(4), aux(1)),
	)
	wantViolation(t, c, "excl-no-diff")

	// After the window closes, the absorbed writes flow through the
	// normal machinery — diffing is the point.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(4), peer(0), aux(1), excl),
		ev(trace.KindTwinCreate, 0, page(4)),
		ev(trace.KindExclWindowClose, 0, page(4), aux(1)),
		ev(trace.KindDiffCreate, 0, page(4), aux(1)),
	)
	if c.Count() != 0 {
		t.Fatalf("post-close diff flagged: %v", c.Violations())
	}

	// A demotion also ends the span, even if the window never opened.
	c = feed(2, 1,
		ev(trace.KindModeChange, 0, page(4), peer(0), aux(1), excl),
		ev(trace.KindModeChange, 0, page(4), peer(-1), aux(2), arg(0)),
		ev(trace.KindTwinCreate, 0, page(4)),
		ev(trace.KindDiffCreate, 0, page(4), aux(1)),
	)
	if c.Count() != 0 {
		t.Fatalf("post-demotion diff flagged: %v", c.Violations())
	}

	// The grant binds (node, page): a non-owner diffs freely.
	c = feed(2, 1,
		ev(trace.KindModeChange, 1, page(4), peer(0), aux(1), excl),
		ev(trace.KindTwinCreate, 1, page(4)),
		ev(trace.KindDiffCreate, 1, page(4), aux(1)),
	)
	if c.Count() != 0 {
		t.Fatalf("non-owner diff flagged: %v", c.Violations())
	}
}
