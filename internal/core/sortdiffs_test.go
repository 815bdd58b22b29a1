package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffHistory builds the diffs of one page from a script of protocol
// steps, keeping the two facts sortDiffs may rely on — a diff's VT[Node]
// is its Idx, and a node's vector time never shrinks — and nothing else.
// In particular learn makes vector times that are NOT transitively
// closed, as the barrier manager does between an arrival and the release.
type diffHistory struct {
	vt    []VClock
	diffs []*Diff
}

func newDiffHistory(nodes int) *diffHistory {
	h := &diffHistory{vt: make([]VClock, nodes)}
	for i := range h.vt {
		h.vt[i] = NewVClock(nodes)
	}
	return h
}

// close ends an interval of node n that dirtied the page, recording the
// diff's vector-time sum as closeInterval does.
func (h *diffHistory) close(n int) {
	h.vt[n][n]++
	h.diffs = append(h.diffs, &Diff{Node: n, Idx: h.vt[n][n], VT: h.vt[n].Clone(), vtSum: h.vt[n].sum()})
}

// acquire gives node n everything node m knows (lock grant, barrier
// release: applyNotices with the sender's vector time).
func (h *diffHistory) acquire(n, m int) { h.vt[n].Merge(h.vt[m]) }

// learn gives node n node o's latest interval and none of what o knew
// when it closed it (barrier arrival at the manager: applyList, with no
// sender vector time).
func (h *diffHistory) learn(n, o int) {
	if h.vt[o][o] > h.vt[n][o] {
		h.vt[n][o] = h.vt[o][o]
	}
}

// run interprets script three bytes at a time: an opcode and two nodes.
func (h *diffHistory) run(script []byte) {
	n := len(h.vt)
	for ; len(script) >= 3; script = script[3:] {
		a, b := int(script[1])%n, int(script[2])%n
		switch script[0] % 4 {
		case 0, 1:
			h.close(a)
		case 2:
			h.acquire(a, b)
		case 3:
			h.learn(a, b)
		}
	}
}

// fault returns what one fault could collect: a random subset of the
// diffs (so queues have gaps and several entries), in shuffled order.
func (h *diffHistory) fault(r *rand.Rand) []*Diff {
	var ds []*Diff
	for _, d := range h.diffs {
		if r.Intn(4) > 0 {
			ds = append(ds, d)
		}
	}
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// checkAgainstReference orders one fault's diffs with s and with the
// replaced algorithm and requires the same sequence, diff for diff.
func checkAgainstReference(t *testing.T, s *diffSorter, ds []*Diff) {
	t.Helper()
	want := slices.Clone(ds)
	sortDiffsReference(want)
	got := slices.Clone(ds)
	s.sortDiffs(got)
	if !slices.Equal(got, want) {
		t.Fatalf("order differs from the reference\n got  %s\n want %s", fmtDiffs(got), fmtDiffs(want))
	}
}

func fmtDiffs(ds []*Diff) string {
	var out []byte
	for _, d := range ds {
		out = fmt.Appendf(out, "(%d,%d)%v ", d.Node, d.Idx, []int32(d.VT))
	}
	return string(out)
}

// TestSortDiffsMatchesReference: on random histories of 2 to 64 nodes,
// with multi-diff queues, shuffled input and non-closed vector times, and
// on scaleout-shaped faults of 65 to 192 nodes — over a hundred heads,
// lock chains three long, locks taken in node order or scattered — one
// reused sorter emits exactly the reference's order.
func TestSortDiffsMatchesReference(t *testing.T) {
	var s diffSorter
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := 2 + r.Intn(63)
		script := make([]byte, 3*(8+r.Intn(40*nodes/8+24)))
		r.Read(script)
		h := newDiffHistory(nodes)
		h.run(script)
		for f := 0; f < 3; f++ {
			checkAgainstReference(t, &s, h.fault(r))
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := 65 + r.Intn(128)
		if seed <= 4 {
			nodes = 192
		}
		ds := scaleoutFault(r, nodes, min(64, nodes), seed%2 == 0)
		if nodes == 192 && len(ds) < 100 {
			t.Fatalf("seed %d: a 192-node fault of only %d diffs", seed, len(ds))
		}
		checkAgainstReference(t, &s, ds)
	}
}

// scaleoutFault is one accumulator-page fault of a scaleout run on nodes
// nodes: each epoch every node takes one of stripes locks and writes the
// page in its critical section (chains of nodes/stripes holders), and a
// barrier gives everyone everything. The locks go in node order, as the
// barrier release hands them out, or scattered. A few nodes write the
// page twice in an epoch, so some queues hold several diffs. The
// faulting node holds its stripe's lock in the next epoch, so it needs
// every other node's diffs of the last epoch plus the earlier holders'
// of its own chain.
func scaleoutFault(r *rand.Rand, nodes, stripes int, scattered bool) []*Diff {
	h := newDiffHistory(nodes)
	barrier := func() {
		j := NewVClock(nodes)
		for _, vt := range h.vt {
			j.Merge(vt)
		}
		for _, vt := range h.vt {
			copy(vt, j)
		}
	}
	// epoch runs the critical sections in a scattered order; the faulter
	// (if any) stops the epoch holding its lock, before it writes.
	epoch := func(faulter int) {
		holder := make([]int, stripes)
		for i := range holder {
			holder[i] = -1
		}
		order := r.Perm(nodes)
		if !scattered {
			slices.Sort(order)
		}
		for _, n := range order {
			s := n % stripes
			if holder[s] >= 0 {
				h.acquire(n, holder[s])
			}
			if n == faulter {
				return
			}
			h.close(n)
			if r.Intn(16) == 0 {
				h.close(n)
			}
			holder[s] = n
		}
	}
	epoch(-1)
	barrier()
	last := len(h.diffs)
	epoch(-1)
	barrier()
	faulter := r.Intn(nodes)
	epoch(faulter)
	var ds []*Diff
	for _, d := range h.diffs[last:] {
		if d.Node != faulter && d.Idx <= h.vt[faulter][d.Node] && r.Intn(4) > 0 {
			ds = append(ds, d)
		}
	}
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// FuzzSortDiffsMatchesReference lets the fuzzer write the history; the
// seed corpus runs with the ordinary tests (`make fuzz-sortdiffs` fuzzes).
func FuzzSortDiffsMatchesReference(f *testing.F) {
	f.Add(uint8(2), int64(1), []byte{0, 0, 0, 0, 1, 0, 2, 1, 0, 0, 1, 0})
	f.Add(uint8(2), int64(2), []byte{0, 3, 0, 3, 0, 3, 0, 0, 0, 2, 1, 0, 0, 1, 0, 0, 3, 0})
	f.Add(uint8(6), int64(3), []byte("the barrier manager learns (o,i) without o's knowledge"))
	f.Add(uint8(62), int64(4), bytes.Repeat([]byte{1, 7, 9, 3, 0, 7, 0, 13, 2, 2, 13, 7, 0, 40, 1, 3, 40, 13}, 12))
	var s diffSorter
	f.Fuzz(func(t *testing.T, nodes uint8, pick int64, script []byte) {
		h := newDiffHistory(2 + int(nodes)%63)
		h.run(script)
		checkAgainstReference(t, &s, h.fault(rand.New(rand.NewSource(pick))))
	})
}

// TestSortDiffsPinnedOrders pins the emitted order on inputs where a
// cheaper rule would emit another one.
func TestSortDiffsPinnedOrders(t *testing.T) {
	mk := func(node int, idx int32, vt ...int32) *Diff {
		return &Diff{Node: node, Idx: idx, VT: VClock(vt)}
	}
	cases := []struct {
		name string
		in   []*Diff
		want [][2]int32 // (node, idx) in application order
	}{
		{
			// Recorded from waternsq on 4 nodes. Node 0, the barrier
			// manager, learned interval (3,29) from node 3's arrival but
			// not what node 3 knew: diff (0,74) names (3,29) in its vector
			// time, yet node 3 had seen (1,69) and node 0 only (1,65), so
			// the two are concurrent and node 0's goes first. "b.VT[a.Node]
			// >= a.Idx" alone would call (3,29) the earlier one.
			name: "waternsq non-closed manager time",
			in:   []*Diff{mk(3, 29, 73, 69, 36, 29), mk(0, 74, 74, 65, 37, 29)},
			want: [][2]int32{{0, 74}, {3, 29}},
		},
		{
			// A real chain against node order: 2 -> 1 -> 0.
			name: "chain descending",
			in:   []*Diff{mk(0, 1, 1, 1, 1), mk(1, 1, 0, 1, 1), mk(2, 1, 0, 0, 1)},
			want: [][2]int32{{2, 1}, {1, 1}, {0, 1}},
		},
		{
			// Node 1's second diff waits for node 2's; its first does not,
			// and concurrent heads go lowest node first.
			name: "second in queue blocked",
			in:   []*Diff{mk(1, 2, 0, 2, 1), mk(2, 1, 0, 0, 1), mk(1, 1, 0, 1, 0), mk(0, 1, 1, 0, 0)},
			want: [][2]int32{{0, 1}, {1, 1}, {2, 1}, {1, 2}},
		},
	}
	var s diffSorter
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, &s, c.in)
			s.sortDiffs(c.in)
			for i, d := range c.in {
				if got := [2]int32{int32(d.Node), d.Idx}; got != c.want[i] {
					t.Fatalf("position %d is %v, want %v (all: %s)", i, got, c.want[i], fmtDiffs(c.in))
				}
			}
		})
	}
}

// TestDetectRacesPrefilter: with the one-component test in front of each
// Before, detectRaces counts what two bare Before calls count.
func TestDetectRacesPrefilter(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := 2 + r.Intn(15)
		script := make([]byte, 3*(8+r.Intn(60)))
		r.Read(script)
		h := newDiffHistory(nodes)
		h.run(script)
		ds := h.fault(r)
		for _, d := range ds {
			// A handful of byte positions, so that some pairs overlap.
			d.Runs = []Run{{Off: int32(8 * r.Intn(6)), Data: make([]byte, 8)}}
		}
		var want int64
		for i, a := range ds {
			for _, b := range ds[i+1:] {
				if a.Node != b.Node && !a.VT.Before(b.VT) && !b.VT.Before(a.VT) && a.Overlaps(b) {
					want++
				}
			}
		}
		var n node
		n.detectRaces(ds)
		if n.stats.RacesDetected != want {
			t.Fatalf("seed %d: %d races, want %d", seed, n.stats.RacesDetected, want)
		}
	}
}

// concurrentWriters is a many-writer fault after a barrier: every node
// knows every other node's interval 5 and wrote the page in its interval 6.
func concurrentWriters(writers int) []*Diff {
	h := newDiffHistory(writers)
	for i := range h.vt {
		for j := range h.vt[i] {
			h.vt[i][j] = 5
		}
	}
	for n := 0; n < writers; n++ {
		h.close(n)
	}
	return h.diffs
}

// chainedWriters is a page of lock-protected accumulators: the lock goes
// round the nodes in a scattered order, each holder writing the page, so
// the diffs form one chain that runs against node order most of the time.
func chainedWriters(writers int) []*Diff {
	h := newDiffHistory(writers)
	prev := -1
	for i := 0; i < writers; i++ {
		n := (i*7919 + 3) % writers // 7919 is prime to every size used
		if prev >= 0 {
			h.acquire(n, prev)
		}
		h.close(n)
		prev = n
	}
	return h.diffs
}

// TestSortDiffsSteadyStateAllocs: once a node's sorter has seen a fault
// of some size, ordering another one allocates nothing; neither does
// looking up a page's known writers.
func TestSortDiffsSteadyStateAllocs(t *testing.T) {
	for _, ds := range [][]*Diff{concurrentWriters(64), chainedWriters(64)} {
		var s diffSorter
		s.sortDiffs(ds)
		if a := testing.AllocsPerRun(20, func() {
			slices.Reverse(ds)
			s.sortDiffs(ds)
		}); a != 0 {
			t.Errorf("sortDiffs: %v allocs per call on a warm sorter, want 0", a)
		}
	}
	var p page
	for n := 0; n < 192; n += 2 {
		p.writer(n)
	}
	if a := testing.AllocsPerRun(20, func() {
		for n := 0; n < 192; n += 2 {
			if int(p.writer(n).node) != n {
				t.Fatal("writer returned another node's entry")
			}
		}
	}); a != 0 {
		t.Errorf("page.writer: %v allocs per lookup pass, want 0", a)
	}
}

// TestPageWriterKeepsOrder: entries inserted in any order come out sorted
// by node, one per node, each keeping its state across later inserts.
func TestPageWriterKeepsOrder(t *testing.T) {
	var p page
	r := rand.New(rand.NewSource(7))
	for _, n := range r.Perm(300) {
		p.writer(n).wanted = int32(n + 1)
		p.writer(n) // a second lookup must not insert again
	}
	if len(p.writers) != 300 {
		t.Fatalf("%d entries, want 300", len(p.writers))
	}
	for i, w := range p.writers {
		if int(w.node) != i || w.wanted != int32(i+1) {
			t.Fatalf("entry %d is node %d wanted %d", i, w.node, w.wanted)
		}
	}
}

func BenchmarkSortDiffs(b *testing.B) {
	for _, scattered := range []bool{false, true} {
		b.Run(fmt.Sprintf("scaleout=192/scattered=%v", scattered), func(b *testing.B) {
			arrival := scaleoutFault(rand.New(rand.NewSource(1)), 192, 64, scattered)
			ds := make([]*Diff, len(arrival))
			var s diffSorter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ds, arrival)
				s.sortDiffs(ds)
			}
		})
	}
	for _, writers := range []int{4, 64, 192, 1024} {
		for _, shape := range []struct {
			name string
			mk   func(int) []*Diff
		}{{"concurrent", concurrentWriters}, {"chain", chainedWriters}} {
			b.Run(fmt.Sprintf("writers=%d/%s", writers, shape.name), func(b *testing.B) {
				arrival := shape.mk(writers)
				rand.New(rand.NewSource(1)).Shuffle(len(arrival), func(i, j int) {
					arrival[i], arrival[j] = arrival[j], arrival[i]
				})
				ds := make([]*Diff, len(arrival))
				var s diffSorter
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(ds, arrival)
					s.sortDiffs(ds)
				}
			})
		}
	}
}

func BenchmarkPageWriter(b *testing.B) {
	for _, writers := range []int{4, 192} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			var p page
			for n := 0; n < writers; n++ {
				p.writer(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.writer(i%writers).applied++
			}
		})
	}
}
