package core

import (
	"slices"
	"testing"
)

// TestIntervalChainWalksFreshRecords: a node hears of creator 1's
// intervals 1–2 on one grant and 3–5 on the next, each grant carrying
// only the newest record. Each applyList must walk exactly the records
// the node lacks (interval k names page k), end with vt[1] at the newest
// index, and bytesSince over the chain must equal the sum over a flat
// list of the same records past any vector time.
func TestIntervalChainWalksFreshRecords(t *testing.T) {
	s := testSystem(t, 3, 1)
	n := s.nodes[0]
	n.initPages(pageShardSize)
	var flat []*IntervalInfo
	for k := int32(1); k <= 5; k++ {
		rec := &IntervalInfo{Idx: k, Pages: []PageID{PageID(k), 9}}
		if k > 1 {
			rec.prev = flat[k-2]
		}
		flat = append(flat, rec)
	}
	for pg := PageID(0); pg < 10; pg++ {
		n.pageAt(pg) // materialized, so every walk shows on the pages
	}
	wanted := func(pg PageID) int32 { return n.peek(pg).writer(1).wanted }

	n.applyList(1, flat[1])
	if n.vt[1] != 2 || n.intervals[1] != flat[1] {
		t.Fatalf("after intervals 1–2: vt[1] = %d, newest %v; want 2 and record 2", n.vt[1], n.intervals[1])
	}
	for pg, want := range map[PageID]int32{1: 1, 2: 2, 3: 0, 9: 2} {
		if got := wanted(pg); got != want {
			t.Errorf("after intervals 1–2: page %d wants %d, want %d", pg, got, want)
		}
	}
	// Forget what the first walk did: a second walk that reached back
	// past vt[1] would set it again.
	n.peek(1).writer(1).wanted, n.peek(2).writer(1).wanted = 0, 0

	n.applyList(1, flat[4])
	if n.vt[1] != 5 || n.intervals[1] != flat[4] {
		t.Fatalf("after intervals 3–5: vt[1] = %d; want 5 and record 5", n.vt[1])
	}
	for pg, want := range map[PageID]int32{1: 0, 2: 0, 3: 3, 4: 4, 5: 5, 9: 5} {
		if got := wanted(pg); got != want {
			t.Errorf("after intervals 3–5: page %d wants %d, want %d", pg, got, want)
		}
		if st := n.peek(pg).state; want > 0 && st != PageInvalid {
			t.Errorf("page %d is %v, want invalid", pg, st)
		}
	}
	n.applyList(1, flat[2]) // an older record changes nothing
	if n.vt[1] != 5 || n.intervals[1] != flat[4] {
		t.Errorf("a stale record moved vt[1] to %d", n.vt[1])
	}

	ns := notices{nil, flat[4], nil}
	for idx := int32(0); idx <= 5; idx++ {
		want := 0
		for _, rec := range flat[idx:] {
			want += 12 + 4*3 + 4*len(rec.Pages)
		}
		if got := ns.bytesSince(VClock{7, idx, 7}); got != want {
			t.Errorf("bytesSince with vt[1] = %d: %d, want %d", idx, got, want)
		}
	}
}

// TestVectorTimesOnlyForTheRaceDetector: without Config.DetectRaces no
// diff keeps its creator's vector time; with it, every diff does, and
// its sizes are the same either way.
func TestVectorTimesOnlyForTheRaceDetector(t *testing.T) {
	sizes := map[bool][]int{}
	for _, detect := range []bool{false, true} {
		cfg := DefaultConfig(3, 1)
		cfg.DetectRaces = detect
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("x", 4*cfg.PageSize)
		runApp(t, s, func(w *Thread) {
			w.Lock(0)
			w.WriteI64(addr+Addr(w.GlobalID()*cfg.PageSize), 1)
			w.Unlock(0)
			w.Barrier(0)
		})
		for _, n := range s.nodes {
			for pg := PageID(0); pg < 4; pg++ {
				p := n.peek(pg)
				if p == nil {
					continue
				}
				for _, d := range p.diffs {
					if (d.VT != nil) != detect {
						t.Errorf("DetectRaces %v: diff (%d,%d) has vector time %v", detect, d.Node, d.Idx, d.VT)
					}
					sizes[detect] = append(sizes[detect], d.Bytes())
				}
			}
		}
	}
	if len(sizes[false]) != 3 || !slices.Equal(sizes[false], sizes[true]) {
		t.Errorf("diff sizes %v without the detector, %v with it; want 3 equal", sizes[false], sizes[true])
	}
}
