package core

import (
	"reflect"
	"testing"
)

// classStep is one synthetic epoch fed to the classifier: the nodes
// that closed write intervals on the page, the nodes that
// remote-faulted on it, and the faults satisfied from pushed-update
// caches, plus the expected outcome.
type classStep struct {
	writers []int32
	readers []int32
	hits    int32

	wantChanged bool
	wantPattern PagePattern
	wantMode    PageMode
}

// driveClassifier replays a step table against a fresh classifier,
// failing on the first divergence. promoteOK is held true throughout.
func driveClassifier(t *testing.T, steps []classStep) *classifier {
	t.Helper()
	c := newClassifier()
	const pg = PageID(7)
	for i, s := range steps {
		d, changed := c.Step(pg, s.writers, s.readers, s.hits, true)
		if changed != s.wantChanged {
			t.Fatalf("step %d: changed = %v, want %v (decision %+v)", i, changed, s.wantChanged, d)
		}
		if got := c.Pattern(pg); got != s.wantPattern {
			t.Fatalf("step %d: pattern = %v, want %v", i, got, s.wantPattern)
		}
		if d.Mode != s.wantMode {
			t.Fatalf("step %d: mode = %v, want %v", i, d.Mode, s.wantMode)
		}
	}
	return c
}

// TestClassifierTaxonomy drives each sharing pattern of the taxonomy
// through the classifier and checks the prescribed mode transitions.
func TestClassifierTaxonomy(t *testing.T) {
	for name, steps := range map[string][]classStep{
		// One stable writer, never read remotely: exclusive mode at the
		// hysteresis threshold.
		"private": {
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
			{writers: []int32{0}, wantChanged: true, wantPattern: PatternPrivate, wantMode: ModeExcl},
		},
		// The single writer hops between nodes: plain invalidate is
		// already optimal (diffs chase the writer), so no mode change.
		"migratory": {
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
			{writers: []int32{1}, wantPattern: PatternMigratory, wantMode: ModeMWInv},
			{writers: []int32{2}, wantPattern: PatternMigratory, wantMode: ModeMWInv},
			{writers: []int32{0}, wantPattern: PatternMigratory, wantMode: ModeMWInv},
		},
		// One writer with foreign readers in the same epoch: update mode.
		"producer-consumer": {
			{writers: []int32{0}, readers: []int32{1, 2}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
			{writers: []int32{0}, readers: []int32{1, 2}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
		},
		// Barrier-separated phases: the write epoch and the read epoch
		// never coincide, yet the page is still producer-consumer — the
		// readers-only epoch over the last writer's data continues (and
		// upgrades) the streak instead of resetting it.
		"producer-consumer-phase-split": {
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
			{readers: []int32{3}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
		},
		// Multiple writers in one epoch: false sharing, stay on the
		// multi-writer invalidate protocol that exists for exactly this.
		"false-sharing": {
			{writers: []int32{0, 1}, wantPattern: PatternFalseSharing, wantMode: ModeMWInv},
			{writers: []int32{0, 1}, wantPattern: PatternFalseSharing, wantMode: ModeMWInv},
			{writers: []int32{2, 3}, wantPattern: PatternFalseSharing, wantMode: ModeMWInv},
		},
		// Reads with no writer on record classify nothing: there is no
		// producer to subscribe to.
		"readers-before-any-writer": {
			{readers: []int32{1}, wantPattern: PatternUnknown, wantMode: ModeMWInv},
			{readers: []int32{2}, wantPattern: PatternUnknown, wantMode: ModeMWInv},
		},
	} {
		t.Run(name, func(t *testing.T) { driveClassifier(t, steps) })
	}
}

// TestClassifierHysteresis checks that a single-epoch pattern does not
// act and that alternating patterns never reach the threshold: the
// classifier must not flap.
func TestClassifierHysteresis(t *testing.T) {
	t.Run("one-epoch-pattern-waits", func(t *testing.T) {
		driveClassifier(t, []classStep{
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
		})
	})

	t.Run("alternating-patterns-never-act", func(t *testing.T) {
		var steps []classStep
		for i := 0; i < 6; i++ {
			// Producer-consumer one epoch, false sharing the next: each
			// alternation resets the streak below the threshold.
			steps = append(steps,
				classStep{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
				classStep{writers: []int32{0, 1}, wantPattern: PatternFalseSharing, wantMode: ModeMWInv},
			)
		}
		driveClassifier(t, steps)
	})

	t.Run("alternating-writers-stay-invalidate", func(t *testing.T) {
		var steps []classStep
		steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv})
		for i := 0; i < 10; i++ {
			steps = append(steps, classStep{writers: []int32{int32(1 + i%2)}, wantPattern: PatternMigratory, wantMode: ModeMWInv})
		}
		driveClassifier(t, steps)
	})
}

// TestClassifierCooldown checks that a page rests after a mode change:
// even a persistent contradicting pattern cannot switch it again until
// the cooldown has drained.
func TestClassifierCooldown(t *testing.T) {
	steps := []classStep{
		{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
		{writers: []int32{0}, readers: []int32{1}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
	}
	// False sharing from here on: the demotion must wait out the
	// 3-epoch cooldown even though the pattern's streak passes the
	// hysteresis threshold during it. hits keeps the update-mode
	// usefulness feedback quiet so only the cooldown is under test.
	for i := 0; i < 3; i++ {
		steps = append(steps, classStep{writers: []int32{0, 1}, hits: 1, wantPattern: PatternFalseSharing, wantMode: ModeMWUpd})
	}
	steps = append(steps, classStep{writers: []int32{0, 1}, hits: 1, wantChanged: true, wantPattern: PatternFalseSharing, wantMode: ModeMWInv})
	driveClassifier(t, steps)
}

// TestClassifierExclDemotion checks the exclusive-mode escape hatch:
// any foreign touch demotes immediately — no hysteresis, no cooldown —
// and bars the page from ever promoting again.
func TestClassifierExclDemotion(t *testing.T) {
	steps := []classStep{
		{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
		{writers: []int32{0}, wantChanged: true, wantPattern: PatternPrivate, wantMode: ModeExcl},
		// Foreign reader: immediate demotion despite the fresh cooldown.
		{readers: []int32{2}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
	}
	// A long private streak afterwards must not re-promote: the window
	// machinery has been disabled for this page for good.
	for i := 0; i < 8; i++ {
		steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
	}
	driveClassifier(t, steps)
}

// TestClassifierSubscriberCap checks both sides of the subscriber
// bound: a too-wide readership never promotes, and a promoted page
// demotes when its sticky subscriber set outgrows the cap.
func TestClassifierSubscriberCap(t *testing.T) {
	readers := make([]int32, subscriberCap+1) // nodes 1..17; node 0 writes
	for i := range readers {
		readers[i] = int32(i + 1)
	}
	atCap, pastCap := readers[:subscriberCap], readers

	t.Run("wide-readership-never-promotes", func(t *testing.T) {
		var steps []classStep
		for i := 0; i < 6; i++ {
			steps = append(steps, classStep{writers: []int32{0}, readers: pastCap,
				wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		}
		driveClassifier(t, steps)
	})

	t.Run("growth-past-cap-demotes", func(t *testing.T) {
		steps := []classStep{
			{writers: []int32{0}, readers: atCap, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
			{writers: []int32{0}, readers: atCap, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
		}
		for i := 0; i < cooldown; i++ { // cooldown drain; hits silence the usefulness feedback
			steps = append(steps, classStep{writers: []int32{0}, readers: atCap, hits: 1, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps, classStep{writers: []int32{0}, readers: pastCap, hits: 1,
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		driveClassifier(t, steps)
	})
}

// TestClassifierPromotionGate checks the controller's per-epoch
// promotion cap seam: with promoteOK false a promotable page stays put
// but keeps its streak, and promotes on the next permitted epoch.
func TestClassifierPromotionGate(t *testing.T) {
	c := newClassifier()
	const pg = PageID(3)
	if _, changed := c.Step(pg, []int32{1}, nil, 0, true); changed {
		t.Fatal("changed on first epoch, before hysteresis")
	}
	d, changed := c.Step(pg, []int32{1}, nil, 0, false)
	if changed || d.Mode != ModeMWInv {
		t.Fatalf("promoted with promoteOK=false: changed=%v mode=%v", changed, d.Mode)
	}
	d, changed = c.Step(pg, []int32{1}, nil, 0, true)
	if !changed || d.Mode != ModeExcl || d.Owner != 1 {
		t.Fatalf("no promotion once gate opened: changed=%v decision=%+v", changed, d)
	}
}

// TestClassifierSubsSticky checks that the update-mode subscriber set
// only grows (sorted, deduplicated) and excludes the producer: a
// consumer that skips an epoch keeps receiving pushes.
func TestClassifierSubsSticky(t *testing.T) {
	c := newClassifier()
	const pg = PageID(11)
	c.Step(pg, []int32{0}, []int32{2}, 0, true)
	d, changed := c.Step(pg, []int32{0}, []int32{2}, 0, true)
	if !changed || !reflect.DeepEqual(d.Subs, []int32{2}) {
		t.Fatalf("after promotion: changed=%v subs=%v, want [2]", changed, d.Subs)
	}
	for i := 0; i < cooldown; i++ { // cooldown epochs, reader 1 arrives
		c.Step(pg, []int32{0}, []int32{1}, 1, true)
	}
	d, changed = c.Step(pg, []int32{0}, []int32{1, 0}, 1, true)
	if !changed || !reflect.DeepEqual(d.Subs, []int32{1, 2}) {
		t.Fatalf("subscriber growth: changed=%v subs=%v, want [1 2] (writer excluded)", changed, d.Subs)
	}
	d, _ = c.Step(pg, []int32{0}, nil, 1, true)
	if !reflect.DeepEqual(d.Subs, []int32{1, 2}) {
		t.Fatalf("subs shrank on a quiet epoch: %v, want [1 2]", d.Subs)
	}
}

// TestClassifierUpdateDemotion checks the update-mode usefulness
// feedback: a run of 2×Hysteresis hitless push epochs demotes despite
// the cooldown, a hit epoch resets the run, and a second useless stint
// bars the page from update mode permanently.
func TestClassifierUpdateDemotion(t *testing.T) {
	promote := []classStep{
		{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
		{writers: []int32{0}, readers: []int32{1}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
	}

	t.Run("hitless-run-demotes", func(t *testing.T) {
		steps := append([]classStep(nil), promote...)
		// Four hitless write epochs (2×Hysteresis): demotion fires on the
		// last one, overriding the post-promotion cooldown.
		for i := 0; i < 3; i++ {
			steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps, classStep{writers: []int32{0},
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		driveClassifier(t, steps)
	})

	t.Run("hit-resets-the-run", func(t *testing.T) {
		steps := append([]classStep(nil), promote...)
		for round := 0; round < 3; round++ {
			// Three hitless epochs, then a hit: the run never reaches
			// 2×Hysteresis, so the page keeps pushing.
			for i := 0; i < 3; i++ {
				steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
			}
			steps = append(steps, classStep{writers: []int32{0}, hits: 2, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		driveClassifier(t, steps)
	})

	t.Run("second-stint-bars-for-good", func(t *testing.T) {
		steps := append([]classStep(nil), promote...)
		// First useless stint: demote after 4 hitless write epochs.
		for i := 0; i < 3; i++ {
			steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps, classStep{writers: []int32{0},
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		// Cooldown drains, then the persistent pattern re-promotes.
		for i := 0; i < 3; i++ {
			steps = append(steps, classStep{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		}
		steps = append(steps, classStep{writers: []int32{0}, readers: []int32{1},
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		// Second useless stint: demote again — and bar.
		for i := 0; i < 3; i++ {
			steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps, classStep{writers: []int32{0},
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		// No amount of producer-consumer evidence re-promotes a barred page.
		for i := 0; i < 8; i++ {
			steps = append(steps, classStep{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		}
		driveClassifier(t, steps)
	})
}

func TestMergeSubs(t *testing.T) {
	for _, tc := range []struct {
		subs, readers []int32
		writer        int32
		want          []int32
	}{
		{nil, []int32{2, 1}, 0, []int32{1, 2}},
		{[]int32{1}, []int32{1, 3}, 0, []int32{1, 3}},
		{[]int32{2}, []int32{0, 4}, 0, []int32{2, 4}},
		{[]int32{1, 3}, nil, 0, []int32{1, 3}},
	} {
		if got := mergeSubs(tc.subs, tc.readers, tc.writer); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("mergeSubs(%v, %v, %d) = %v, want %v", tc.subs, tc.readers, tc.writer, got, tc.want)
		}
	}
}
