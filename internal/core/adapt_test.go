package core

import (
	"reflect"
	"testing"
)

// classStep is one synthetic epoch fed to the classifier: the nodes
// that closed write intervals on the page and the nodes that
// remote-faulted on it, plus the expected outcome.
type classStep struct {
	writers []int32
	readers []int32

	wantChanged bool
	wantPattern PagePattern
	wantMode    PageMode
}

// driveClassifier replays a step table against a fresh classifier,
// failing on the first divergence.
func driveClassifier(t *testing.T, steps []classStep) *classifier {
	t.Helper()
	c := newClassifier()
	const pg = PageID(7)
	for i, s := range steps {
		d, changed := c.Step(pg, s.writers, s.readers)
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
		// One stable writer, never read remotely: nothing to push to, so
		// the page stays on invalidate past the hysteresis threshold.
		"private": {
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
			{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv},
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
	// hysteresis threshold during it.
	for i := 0; i < 3; i++ {
		steps = append(steps, classStep{writers: []int32{0, 1}, wantPattern: PatternFalseSharing, wantMode: ModeMWUpd})
	}
	steps = append(steps, classStep{writers: []int32{0, 1}, wantChanged: true, wantPattern: PatternFalseSharing, wantMode: ModeMWInv})
	driveClassifier(t, steps)
}

// TestClassifierPrivateStaysPut checks that a page only ever written by
// one node and never read remotely keeps the default mode however long
// the history: update mode would have no subscriber to push to.
func TestClassifierPrivateStaysPut(t *testing.T) {
	var steps []classStep
	for i := 0; i < 12; i++ {
		steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternPrivate, wantMode: ModeMWInv})
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
		for i := 0; i < cooldown; i++ { // cooldown drain
			steps = append(steps, classStep{writers: []int32{0}, readers: atCap, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps, classStep{writers: []int32{0}, readers: pastCap,
			wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv})
		driveClassifier(t, steps)
	})
}

// TestClassifierSubsSticky checks that the update-mode subscriber set
// only grows (sorted, deduplicated) and excludes the producer: a
// consumer that skips an epoch keeps receiving pushes.
func TestClassifierSubsSticky(t *testing.T) {
	c := newClassifier()
	const pg = PageID(11)
	c.Step(pg, []int32{0}, []int32{2})
	d, changed := c.Step(pg, []int32{0}, []int32{2})
	if !changed || !reflect.DeepEqual(d.Subs, []int32{2}) {
		t.Fatalf("after promotion: changed=%v subs=%v, want [2]", changed, d.Subs)
	}
	for i := 0; i < cooldown; i++ { // cooldown epochs, reader 1 arrives
		c.Step(pg, []int32{0}, []int32{1})
	}
	d, changed = c.Step(pg, []int32{0}, []int32{1, 0})
	if !changed || !reflect.DeepEqual(d.Subs, []int32{1, 2}) {
		t.Fatalf("subscriber growth: changed=%v subs=%v, want [1 2] (writer excluded)", changed, d.Subs)
	}
	d, _ = c.Step(pg, []int32{0}, nil)
	if !reflect.DeepEqual(d.Subs, []int32{1, 2}) {
		t.Fatalf("subs shrank on a quiet epoch: %v, want [1 2]", d.Subs)
	}
}

// TestClassifierUpdateDemotion checks what takes a page out of update
// mode: a run of push epochs that no consumer faults in is not evidence
// against it, but false sharing is, once it outlasts the hysteresis.
func TestClassifierUpdateDemotion(t *testing.T) {
	promote := []classStep{
		{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWInv},
		{writers: []int32{0}, readers: []int32{1}, wantChanged: true, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd},
	}

	t.Run("hitless-run-stays", func(t *testing.T) {
		steps := append([]classStep(nil), promote...)
		for i := 0; i < 10; i++ {
			steps = append(steps, classStep{writers: []int32{0}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		driveClassifier(t, steps)
	})

	t.Run("false-sharing-demotes", func(t *testing.T) {
		steps := append([]classStep(nil), promote...)
		for i := 0; i < cooldown; i++ { // cooldown drain
			steps = append(steps, classStep{writers: []int32{0}, readers: []int32{1}, wantPattern: PatternProducerConsumer, wantMode: ModeMWUpd})
		}
		steps = append(steps,
			classStep{writers: []int32{0, 1}, wantPattern: PatternFalseSharing, wantMode: ModeMWUpd},
			classStep{writers: []int32{0, 1}, wantChanged: true, wantPattern: PatternFalseSharing, wantMode: ModeMWInv})
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
