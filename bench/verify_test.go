package main

import (
	"fmt"
	"strings"
	"testing"

	"cvm/internal/apps"
)

// wrongReference is an application whose sequential reference disagrees
// with what it computed.
type wrongReference struct{ apps.App }

func (w wrongReference) Check() error {
	return fmt.Errorf("%s: checksum %g, reference %g", w.Name(), w.Checksum(), w.Checksum()+1)
}

func TestWrongChecksumIsACountedFailure(t *testing.T) {
	c := cell{"sor", apps.SizeTest, 4, 2}
	app, err := apps.New(c.app, c.size)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger()
	out, err := simCell(nil, wrongReference{app}, c, nil, observers{})
	if led.op(c.String(), statsPrint(out.stats), err) {
		t.Fatal("an op whose checksum the reference rejects passed")
	}
	if led.attempted != 1 || led.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", led.attempted, led.failed)
	}
	if len(led.notes) != 1 || !strings.Contains(led.notes[0], "reference") {
		t.Errorf("notes %q: want the checksum error", led.notes)
	}
}

func TestLedgerFingerprints(t *testing.T) {
	led := newLedger()
	steps := []struct {
		key   string
		print uint64
		err   error
		ok    bool
	}{
		{"a", 1, nil, true},
		{"a", 1, nil, true},                       // a later pass agrees
		{"b", 2, nil, true},                       // another cell has its own fingerprint
		{"a", 3, nil, false},                      // a simulated statistic moved
		{"c", 0, fmt.Errorf("run failed"), false}, // the run's own error
		{"c", 9, nil, true},                       // a failed op leaves no fingerprint behind
	}
	for i, s := range steps {
		if got := led.op(s.key, s.print, s.err); got != s.ok {
			t.Errorf("step %d: ok %v, want %v", i, got, s.ok)
		}
	}
	if led.attempted != 6 || led.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", led.attempted, led.failed)
	}
}

func TestStatsPrintSeesEveryStatistic(t *testing.T) {
	c := cell{"sor", apps.SizeTest, 4, 2}
	run := func() simOut {
		app, err := apps.New(c.app, c.size)
		if err != nil {
			t.Fatal(err)
		}
		out, err := simCell(nil, app, c, nil, observers{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if statsPrint(a.stats) != statsPrint(b.stats) {
		t.Fatal("two runs of one cell have different fingerprints")
	}
	b.stats.Wall++
	if statsPrint(a.stats) == statsPrint(b.stats) {
		t.Error("the fingerprint ignores Wall")
	}
	b = run()
	b.stats.Nodes[1].DiffsUsed++
	if statsPrint(a.stats) == statsPrint(b.stats) {
		t.Error("the fingerprint ignores the per-node counters")
	}
	b = run()
	b.stats.MemTotal.DCacheMisses++
	if statsPrint(a.stats) == statsPrint(b.stats) {
		t.Error("the fingerprint ignores the memory-system counters")
	}
	b = run()
	b.stats.Net.Bytes[0]++
	if statsPrint(a.stats) == statsPrint(b.stats) {
		t.Error("the fingerprint ignores the network counters")
	}
}
