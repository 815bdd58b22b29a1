package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"cvm"
)

// ledger is the one place the benchmark judges outputs. Every cell run
// is one op; it fails when the run, App.Check or the invariant checker
// reported an error, or when its fingerprint differs from an earlier
// run under the same key. Runs that must produce identical simulated
// statistics share a key: the passes of one cell, the sequential and the
// pooled grid, the bare and the observed run.
type ledger struct {
	attempted int
	failed    int
	prints    map[string]uint64
	notes     []string // the first failures, for the log
}

func newLedger() *ledger { return &ledger{prints: map[string]uint64{}} }

// op counts one cell run and reports whether it passed.
func (l *ledger) op(key string, print uint64, err error) bool {
	l.attempted++
	if err == nil {
		if first, seen := l.prints[key]; !seen {
			l.prints[key] = print
		} else if first != print {
			err = fmt.Errorf("fingerprint %016x differs from the first run's %016x", print, first)
		}
	}
	if err == nil {
		return true
	}
	l.failed++
	if len(l.notes) < 10 {
		l.notes = append(l.notes, fmt.Sprintf("%s: %v", key, err))
	}
	return false
}

// statsPrint fingerprints a simulated run: the steady-state wall time,
// the per-node and total DSM counters, the memory-system counters and
// the network traffic. Any simulated statistic that moves changes it.
func statsPrint(st cvm.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%v|%v", st.Wall, st.Total, st.MemTotal, st.Nodes, st.Net.Msgs, st.Net.Bytes)
	return h.Sum64()
}

// checksumPrint fingerprints a real-runtime run by its checksum, which
// the applications keep bit-identical across schedules.
func checksumPrint(sum float64) uint64 { return math.Float64bits(sum) }
