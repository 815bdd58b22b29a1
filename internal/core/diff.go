package core

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// le is the byte order of page words and of the wire's fixed fields.
var le = binary.LittleEndian

// Diff summarizes the modifications made to one page during one or more
// intervals, as a list of byte runs that differ between the page's twin
// and its current contents. Diffs are how CVM's multiple-writer protocol
// merges concurrent modifications to the same page.
type Diff struct {
	Page PageID
	Node int    // creator node
	Idx  int32  // newest interval the diff belongs to
	VT   VClock // creator's vector time at close, only for Config.DetectRaces
	Runs []Run

	// size and encSize are Bytes and WireBytes(true), stamped by the
	// creator at close (encSize only under Config.CompressDiffs).
	size, encSize int32

	// vtSum is the sum of the creator's vector time at close: the first
	// key of sortDiffs.
	vtSum int64
}

// Run is a contiguous modified byte range within a page (MaxPageSize at
// most): its offset and length. The bytes sit behind the diff's last
// run, in the same pointer-free block (newRuns), run after run; runBytes
// finds them from the slice's capacity. So a []Run is whole only as
// MakeDiff or DecodeRuns returned it: one built by hand has no bytes,
// and reading them panics.
type Run struct {
	Off, Len uint16
}

const runSize = int(unsafe.Sizeof(Run{}))

// newRuns returns n run headers with room for total bytes behind them,
// in one allocation the collector need not scan, and those bytes.
func newRuns(n, total int) ([]Run, []byte) {
	all := make([]Run, n+(total+runSize-1)/runSize)
	return all[:n], runBytes(all[:n])
}

// runBytes returns the bytes behind runs' headers, runs[len:cap] viewed
// as bytes; nil for runs with no room behind them.
func runBytes(runs []Run) []byte {
	room := runs[len(runs):cap(runs)]
	if len(room) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&room[0])), len(room)*runSize)
}

// MakeDiff compares twin (the page contents at first write) against cur
// and returns the modified runs. The slices must be the same length.
//
// The comparison is the run scanner below: a bit per byte, built 64
// bytes at a time from word compares, so sparse and dense pages alike
// cost about n/8 comparisons and no byte loop. One pass counts the runs
// and their bytes by popcount and keeps the page's bitmask; a walk of the
// bitmask cuts them. Run boundaries are bit-identical to a
// byte-at-a-time scan (see TestMakeDiffMatchesReference).
//
// A diff is one pointer-free allocation however many runs it has: 4
// bytes a run header, then the runs' bytes (newRuns).
func MakeDiff(page PageID, twin, cur []byte) []Run {
	var mask [maskWords]uint64
	s := newRunScan(twin, cur, false, mask[:])
	n, total := s.count()
	if n == 0 {
		return nil
	}
	runs, data := newRuns(n, total)
	for k := range runs {
		start, end := s.next()
		data = data[copy(data, cur[start:end]):]
		runs[k] = Run{Off: uint16(start), Len: uint16(end - start)}
	}
	return runs
}

// runScan is the one run scanner of the diff codec: it returns, in
// order, the maximal runs of positions i < len(a) at which a[i] differs
// from b[i] — or, with eq, equals it (the RLE's repeat groups, a
// comparing data with itself one byte on). It keeps a bit per byte for
// one 64-byte block at a time, built from eight 8-byte word compares: a
// block whose bytes all match, or all differ, costs those compares
// alone, any other gathers its bits with diffBytes, and a run boundary
// is one TrailingZeros64.
type runScan struct {
	a, b []byte
	flip uint64   // 0: set bits mark differing bytes; all ones: equal bytes
	base int      // a's index of bit 0 of bits
	bits uint64   // the block's bits at or after the scan position
	mask []uint64 // where count keeps the blocks' bits, from the first on
}

// maskWords is the mask a caller of count keeps on its stack: a bit per
// byte of an 8 KB page. A longer page's blocks past it are built again.
const maskWords = 128

// newRunScan starts a scan of a against b (len(b) ≥ len(a)) at byte 0.
// A scan given a mask must count before it walks.
func newRunScan(a, b []byte, eq bool, mask []uint64) runScan {
	s := runScan{a: a, b: b[:len(a)], base: -64, mask: mask}
	if eq {
		s.flip = ^uint64(0)
	}
	return s
}

// count reports how many runs the scan returns and their total length,
// from two popcounts a block — bits set, and bits set above a clear one —
// and keeps the blocks' bits in mask, as many as fit, for next to walk.
func (s *runScan) count() (runs, total int) {
	carry := uint64(0) // the previous block's last bit
	for base := 0; base < len(s.a); base += 64 {
		m := s.block(base)
		if w := base >> 6; w < len(s.mask) {
			s.mask[w] = m
		}
		runs += bits.OnesCount64(m &^ (m<<1 | carry))
		total += bits.OnesCount64(m)
		carry = m >> 63
	}
	return runs, total
}

// next returns the next run as [start, end); start == end == len(a)
// when there is none.
func (s *runScan) next() (start, end int) {
	n := len(s.a)
	for s.bits == 0 {
		if s.base += 64; s.base >= n {
			s.base = n
			return n, n
		}
		s.bits = s.load(s.base)
	}
	start = s.base + bits.TrailingZeros64(s.bits)
	// The run ends at the first clear bit above its start, in this block
	// or a later one.
	z := ^s.bits &^ (s.bits&-s.bits - 1)
	for z == 0 {
		if s.base += 64; s.base >= n {
			s.base, s.bits = n, 0
			return start, n
		}
		s.bits = s.load(s.base)
		z = ^s.bits
	}
	s.bits &^= z&-z - 1
	return start, s.base + bits.TrailingZeros64(z)
}

// load returns the bits of the block at base: kept by count, or built.
func (s *runScan) load(base int) uint64 {
	if w := base >> 6; w < len(s.mask) {
		return s.mask[w]
	}
	return s.block(base)
}

// block returns the bits of bytes [base, base+64), those past len(a)
// clear.
func (s *runScan) block(base int) uint64 {
	a, b := s.a[base:], s.b[base:]
	if len(a) >= 64 {
		a, b := (*[64]byte)(a), (*[64]byte)(b)
		var any uint64
		for k := 0; k < 64; k += 8 {
			any |= le.Uint64(a[k:]) ^ le.Uint64(b[k:])
		}
		if any == 0 {
			return s.flip // every byte matches
		}
		var zero uint64 // the SWAR zero-byte probe
		for k := 0; k < 64; k += 8 {
			x := le.Uint64(a[k:]) ^ le.Uint64(b[k:])
			zero |= (x - 0x0101010101010101) &^ x
		}
		if zero&0x8080808080808080 == 0 {
			return ^s.flip // no byte matches
		}
		var m uint64
		for k := 0; k < 64; k += 8 {
			m |= diffBytes(le.Uint64(a[k:])^le.Uint64(b[k:])) << k
		}
		return m ^ s.flip
	}
	n := len(a)
	var m uint64
	k := 0
	for ; k+8 <= n; k += 8 {
		m |= diffBytes(le.Uint64(a[k:])^le.Uint64(b[k:])) << k
	}
	if k < n && n >= 8 { // the last bytes: the word ending at n
		m |= diffBytes(le.Uint64(a[n-8:])^le.Uint64(b[n-8:])) >> (k + 8 - n) << k
	} else {
		for ; k < n; k++ {
			if a[k] != b[k] {
				m |= 1 << k
			}
		}
	}
	return (m ^ s.flip) & (1<<n - 1)
}

// diffBytes returns a bit per byte of x, set where the byte is not zero:
// the high bit of each byte is set by an add that carries out of any
// non-zero low seven bits, or by the byte's own high bit, and a multiply
// gathers the eight high bits into the low byte.
func diffBytes(x uint64) uint64 {
	const lo7, hi = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	y := ((x & lo7) + lo7 | x) & hi
	return (y >> 7) * 0x0102040810204080 >> 56
}

// Apply writes the diff's runs into page contents dst, and into twin as
// well when twin is non-nil. Applying to the twin keeps remotely-created
// modifications from being re-attributed to the local node's next diff
// when the local node is itself a concurrent writer of the page.
func (d *Diff) Apply(dst, twin []byte) {
	data := runBytes(d.Runs)
	for _, r := range d.Runs {
		off, n := int(r.Off), int(r.Len)
		b := data[:n]
		data = data[n:]
		copy(dst[off:], b)
		if twin != nil {
			copy(twin[off:], b)
		}
	}
}

// stamp fixes d's wire sizes from its runs and the creator's vector time
// at close, vtBytes raw and encVTBytes encoded (0: diffs go uncompressed).
func (d *Diff) stamp(vtBytes, encVTBytes int) {
	n := 16 + vtBytes
	for _, r := range d.Runs {
		n += 8 + int(r.Len)
	}
	d.size = int32(n)
	if encVTBytes > 0 {
		d.encSize = int32(16 + encVTBytes + EncodedRunsSize(d.Runs))
	}
}

// Bytes reports the payload size of the diff on the simulated wire, as
// stamped: 8 bytes a run header (not runSize), the data, the vector time.
func (d *Diff) Bytes() int { return int(d.size) }

// Overlaps reports whether two diffs modify any common byte. Overlapping
// concurrent diffs indicate a data race in the application. MakeDiff
// emits runs in ascending, non-overlapping offset order, so the two run
// lists are walked with a linear two-pointer merge instead of the
// quadratic all-pairs scan.
func (d *Diff) Overlaps(other *Diff) bool {
	da, db := d.Runs, other.Runs
	i, j := 0, 0
	for i < len(da) && j < len(db) {
		aOff, bOff := int(da[i].Off), int(db[j].Off)
		aEnd, bEnd := aOff+int(da[i].Len), bOff+int(db[j].Len)
		if aOff < bEnd && bOff < aEnd {
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
