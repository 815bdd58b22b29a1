package core

import "encoding/binary"

// Diff summarizes the modifications made to one page during one or more
// intervals, as a list of byte runs that differ between the page's twin
// and its current contents. Diffs are how CVM's multiple-writer protocol
// merges concurrent modifications to the same page.
type Diff struct {
	Page PageID
	Node int    // creator node
	Idx  int32  // newest interval the diff belongs to
	VT   VClock // creator's vector time when the interval closed
	Runs []Run

	// encSize caches the compressed wire size (see WireBytes); 0 means
	// not yet computed. Only the creator node touches it.
	encSize int32

	// vtSum is the sum of VT's components, set by the creator for
	// sortDiffs; 0 means not recorded (sortDiffs then adds VT up).
	vtSum int64
}

// Run is a contiguous modified byte range within a page.
type Run struct {
	Off  int32
	Data []byte
}

// MakeDiff compares twin (the page contents at first write) against cur
// and returns the modified runs. The slices must be the same length.
//
// The comparison strides 8 bytes at a time: equal regions skip a word per
// test, and inside a modified region a SWAR zero-byte probe on twin^cur
// extends the run a word at a time while no byte matches. Byte-level
// scans only run at region boundaries, so sparse and dense pages alike
// cost ~n/8 comparisons. Run boundaries are bit-identical to a
// byte-at-a-time scan (see TestMakeDiffMatchesReference).
//
// A diff is two allocations however many runs it has: one []Run and one
// data slab cut to size, each Run.Data a slice of the slab clipped to its
// own length. The scan keeps the first makeDiffStackRuns boundaries on the
// stack; a page with more runs is scanned again from where they end.
func MakeDiff(page PageID, twin, cur []byte) []Run {
	var bounds [makeDiffStackRuns][2]int32
	nruns, nbytes := 0, 0
	for i := 0; ; nruns++ {
		start, end := nextRun(twin, cur, i)
		if start == end {
			break
		}
		if nruns < len(bounds) {
			bounds[nruns] = [2]int32{int32(start), int32(end)}
		}
		nbytes += end - start
		i = end
	}
	if nruns == 0 {
		return nil
	}
	runs := make([]Run, nruns)
	slab := make([]byte, nbytes)
	end := 0
	for k := range runs {
		var start int
		if k < len(bounds) {
			start, end = int(bounds[k][0]), int(bounds[k][1])
		} else {
			start, end = nextRun(twin, cur, end)
		}
		n := copy(slab, cur[start:end])
		runs[k] = Run{Off: int32(start), Data: slab[:n:n]}
		slab = slab[n:]
	}
	return runs
}

const makeDiffStackRuns = 64

// nextRun returns the first modified run at or after byte i as
// [start, end); start == end when the rest of the page is clean.
func nextRun(twin, cur []byte, i int) (start, end int) {
	n := len(cur)
	// Skip the equal region, word-wise while both slices allow it.
	for i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
		i += 8
	}
	for i < n && twin[i] == cur[i] {
		i++
	}
	// Extend the modified run: whole words where every byte differs,
	// then bytes until the first match.
	start = i
	for i+8 <= n {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
		if hasZeroByte(x) {
			break
		}
		i += 8
	}
	for i < n && twin[i] != cur[i] {
		i++
	}
	return start, i
}

// hasZeroByte reports whether any byte of x is zero (the SWAR trick:
// borrow propagation sets the high bit of each zero byte).
func hasZeroByte(x uint64) bool {
	return (x-0x0101010101010101)&^x&0x8080808080808080 != 0
}

// Apply writes the diff's runs into page contents dst, and into twin as
// well when twin is non-nil. Applying to the twin keeps remotely-created
// modifications from being re-attributed to the local node's next diff
// when the local node is itself a concurrent writer of the page.
func (d *Diff) Apply(dst, twin []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
		if twin != nil {
			copy(twin[r.Off:], r.Data)
		}
	}
}

// Bytes reports the payload size of the diff on the simulated wire:
// 8 bytes of header per run plus the run data, plus the vector time.
func (d *Diff) Bytes() int {
	n := d.VT.wireBytes() + 16
	for _, r := range d.Runs {
		n += 8 + len(r.Data)
	}
	return n
}

// Overlaps reports whether two diffs modify any common byte. Overlapping
// concurrent diffs indicate a data race in the application. MakeDiff
// emits runs in ascending, non-overlapping offset order, so the two run
// lists are walked with a linear two-pointer merge instead of the
// quadratic all-pairs scan.
func (d *Diff) Overlaps(other *Diff) bool {
	da, db := d.Runs, other.Runs
	i, j := 0, 0
	for i < len(da) && j < len(db) {
		a, b := &da[i], &db[j]
		aEnd := a.Off + int32(len(a.Data))
		bEnd := b.Off + int32(len(b.Data))
		if a.Off < bEnd && b.Off < aEnd {
			return true
		}
		// Disjoint: drop whichever run ends first; it cannot overlap any
		// later (higher-offset) run of the other diff either.
		if aEnd <= bEnd {
			i++
		} else {
			j++
		}
	}
	return false
}
