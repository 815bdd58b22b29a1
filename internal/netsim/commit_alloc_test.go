//go:build !race

package netsim

import (
	"runtime/debug"
	"testing"

	"cvm/internal/sim"
)

// TestCommitWindowAllocs pins the reliable commit at zero allocations:
// no sort closure, no per-message scheduling closure, and outboxes and
// event queues whose capacity the run reuses — whether an outbox is
// already in sendT order or needs the stable sort. Measured with the
// collector off, whose cycles would otherwise count the runtime's own
// allocations; not built under the race detector, whose runtime
// allocates on its own account.
func TestCommitWindowAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nodes, perSender = 8, 32
	r := newCommitRun(nodes, nil)
	r.net.SetTracer(nil)
	nop := func() {}
	for _, sorted := range []bool{true, false} {
		w0 := r.eng.Now()
		fill := func() {
			for from := range r.net.outbox {
				for k := 0; k < perSender; k++ {
					sendT := w0 + sim.Time(k/2)*us // pairs tie
					if !sorted && k%5 == 4 {
						sendT = w0 // a handler send recorded behind later task sends
					}
					r.net.outbox[from] = append(r.net.outbox[from], wireMsg{
						sendT: sendT, depart: sendT, to: NodeID((from + 1 + k%(nodes-1)) % nodes),
						class: ClassDiff, bytes: 64, deliver: nop})
				}
			}
		}
		commit := func() {
			fill()
			r.net.CommitWindow(w0)
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		commit() // size the outboxes and the event queue
		if n := testing.AllocsPerRun(50, commit); n != 0 {
			t.Errorf("sorted=%v: committing %d messages allocates %v times, want 0", sorted, nodes*perSender, n)
		}
	}
}
