// Package memsim models each node's memory hierarchy: a set-associative
// data cache and a set-associative data TLB. It produces the D-cache and
// D-TLB miss counts of the paper's Figure 2 and charges hit and miss costs
// into simulated user time.
//
// The paper measured Figure 2 on an IBM SP-2 (64 KB per-processor caches,
// CVM forced to the Alpha's 8 KB page size); SP2Params reproduces that
// geometry. The paper's I-TLB counts are not modelled: a simulation has no
// instruction stream.
package memsim

import (
	"fmt"

	"cvm/internal/sim"
)

// MaxAddr bounds the addresses a System simulates (core: shared segments
// below 1<<41, thread-private regions above). Validate rejects a geometry
// whose tags of such addresses would not fit a way's 32 bits.
const MaxAddr = 3 << 40

// Params describes one node's memory system.
type Params struct {
	CacheSize int // data cache capacity in bytes
	LineSize  int // cache line size in bytes
	CacheWays int // data cache associativity

	PageSize int // virtual memory page size in bytes
	DTLBSets int // data TLB sets
	DTLBWays int // data TLB associativity

	HitCost      sim.Time // charged on every access (load/store + ALU work)
	CacheMissPen sim.Time // extra on a data cache miss
	TLBMissPen   sim.Time // extra on a data TLB miss
}

// SP2Params models the paper's SP-2 configuration: a 32 KB 4-way data
// cache with 64-byte lines, an 8×2 D-TLB, and the Alpha's 8 KB pages
// forced as the coherence and paging unit.
func SP2Params() Params {
	return Params{
		// Geometry is scaled below the SP-2's physical 64 KB cache and
		// 512-entry TLB in proportion to the reduced default input
		// sizes, so locality effects (Figure 2) appear at the same
		// relative working-set pressure the paper measured.
		CacheSize:    32 << 10,
		LineSize:     64,
		CacheWays:    4,
		PageSize:     8 << 10,
		DTLBSets:     8,
		DTLBWays:     2,
		HitCost:      50 * sim.Nanosecond,
		CacheMissPen: 200 * sim.Nanosecond,
		TLBMissPen:   350 * sim.Nanosecond,
	}
}

// AlphaParams models one Alpha 2100 4/275 processor: 16 KB direct-mapped
// first-level cache and 8 KB pages. (The 4 MB second-level cache is not
// modeled; first-level misses dominate the locality effects of interest.)
func AlphaParams() Params {
	p := SP2Params()
	p.CacheSize = 16 << 10
	p.LineSize = 32
	p.CacheWays = 1
	return p
}

// Validate rejects a geometry the tag arrays cannot index: a lookup picks
// its set with a mask (a power of two) and stores the rest in 32 bits.
func (p Params) Validate() error {
	if p.LineSize < 1 || p.CacheWays < 1 {
		return fmt.Errorf("memsim: LineSize %d and CacheWays %d must be ≥ 1", p.LineSize, p.CacheWays)
	}
	for _, f := range []struct {
		name       string
		sets, unit int // unit: the bytes a key covers, a line or a page
	}{{"CacheSize/(LineSize*CacheWays)", p.CacheSize / (p.LineSize * p.CacheWays), p.LineSize}, {"DTLBSets", p.DTLBSets, p.PageSize}} {
		if f.sets < 1 || f.sets&(f.sets-1) != 0 {
			return fmt.Errorf("memsim: %s = %d sets, must be a power of two", f.name, f.sets)
		}
		if (MaxAddr-1)>>(log2(f.unit)+log2(f.sets)) >= 1<<32-1 {
			return fmt.Errorf("memsim: %s = %d sets of %d bytes: tags of addresses below %#x overflow 32 bits", f.name, f.sets, f.unit, uint64(MaxAddr))
		}
	}
	return nil
}

// Stats holds cumulative counters for one node's memory system.
type Stats struct {
	Accesses     int64
	DCacheMisses int64
	DTLBMisses   int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.DCacheMisses += other.DCacheMisses
	s.DTLBMisses += other.DTLBMisses
}

// assoc is a set-associative tag array with per-set LRU replacement. It
// backs both the cache and the TLBs. Each set keeps its ways in recency
// order, most recent first, so the order is the whole replacement state:
// a miss drops the last way, and empty ways (tag 0) sit behind every
// resident one and so fill before anything is evicted. The tag arrays of
// a hierarchy are slices of one shared backing array (see System.Init),
// so a whole hierarchy costs a single allocation.
type assoc struct {
	sets    int  // a power of two (Params.Validate), so a mask picks the set
	setBits uint // log2(sets): the key bits the set index holds
	ways    int
	tags    []uint32 // sets*ways entries: key>>setBits + 1, 0 for an empty way (32 bits: Params.Validate)
}

func (a *assoc) init(sets, ways int, backing []uint32) {
	a.sets = sets
	a.setBits = log2(sets)
	a.ways = ways
	a.tags = backing[: sets*ways : sets*ways]
}

// touch looks up key and moves it to the front of its set; it returns
// true on hit. The scan shifts each way back by one as it goes, so a hit
// stops the shift at its own way and a miss drops the least recent one.
func (a *assoc) touch(key uint64) bool {
	base := int(key&uint64(a.sets-1)) * a.ways
	set := a.tags[base : base+a.ways]
	stored := uint32(key>>a.setBits) + 1
	prev := stored
	for i, tag := range set {
		set[i] = prev
		if tag == stored {
			return true
		}
		prev = tag
	}
	return false
}

// System simulates one node's memory hierarchy. The zero value is not
// ready for use; construct with NewSystem or embed and call Init.
type System struct {
	params Params
	dcache assoc
	dtlb   assoc
	stats  Stats

	lineShift uint
	pageShift uint

	// lastLine/lastPage memoize the previous data access for the
	// contiguous-sweep fast path (see Access). noMemo disables the fast
	// path; equivalence tests use it to check miss counts are identical.
	lastLine uint64
	lastPage uint64
	noMemo   bool
}

// invalidLine is a line or page number no real access can produce
// (addresses are below MaxAddr), marking the memo empty.
const invalidLine = ^uint64(0)

// NewSystem returns a memory system with the given geometry.
func NewSystem(p Params) *System {
	s := new(System)
	s.Init(p)
	return s
}

// Init configures s in place with the given geometry, replacing any
// previous state. It exists so a System can be embedded by value in a
// larger per-node structure; the whole hierarchy then costs one backing
// allocation. A geometry Validate rejects panics: core.Config.Validate
// has checked what came from outside.
func (s *System) Init(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cacheSets := p.CacheSize / (p.LineSize * p.CacheWays)
	nc := cacheSets * p.CacheWays
	nd := p.DTLBSets * p.DTLBWays
	backing := make([]uint32, nc+nd)
	*s = System{
		params:    p,
		lineShift: log2(p.LineSize),
		pageShift: log2(p.PageSize),
		lastLine:  invalidLine,
		lastPage:  invalidLine,
	}
	s.dcache.init(cacheSets, p.CacheWays, backing[:nc])
	s.dtlb.init(p.DTLBSets, p.DTLBWays, backing[nc:])
}

// Params returns the system's geometry.
func (s *System) Params() Params { return s.params }

// Stats returns a snapshot of the miss counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats zeroes the counters (cache and TLB contents are kept).
func (s *System) ResetStats() { s.stats = Stats{} }

// Access simulates one data access at the given virtual address and
// returns the time cost to charge to the accessing thread.
//
// Consecutive accesses to the same cache line take a batched fast path:
// the previous access left the line resident and its page mapped, so the
// access is a guaranteed double hit and the set-associative LRU walks are
// skipped. A contiguous typed-array sweep therefore pays the tag-array
// simulation once per line rather than once per element. A new line of
// the same page skips the D-TLB walk alone: only data accesses touch the
// D-TLB, so the previous one left its page in the most recent way (a
// page-sized AccessRange is one walk, not 128). Miss counts and costs are
// bit-identical to the slow path (the just-touched line or page is at the
// front of its set, where a touch changes nothing;
// TestAccessMemoEquivalence checks this against the memo-disabled
// reference).
func (s *System) Access(addr uint64) sim.Time {
	line := addr >> s.lineShift
	pg := addr >> s.pageShift
	s.stats.Accesses++
	cost := s.params.HitCost
	samePage := pg == s.lastPage && !s.noMemo
	if samePage && line == s.lastLine {
		return cost
	}
	s.lastLine = line
	if !s.dcache.touch(line) {
		s.stats.DCacheMisses++
		cost += s.params.CacheMissPen
	}
	if samePage {
		return cost
	}
	s.lastPage = pg
	if !s.dtlb.touch(pg) {
		s.stats.DTLBMisses++
		cost += s.params.TLBMissPen
	}
	return cost
}

// AccessStride8 simulates cnt sequential 8-byte data accesses starting at
// addr (a typed-array span) and returns the total cost. Counters, costs,
// and replacement state are bit-identical to cnt scalar Access calls:
// after the first access of a cache line, the scalar path's remaining
// accesses in that line are guaranteed memo hits (same line, same page),
// so their effect — Accesses++ and HitCost each, no tag-array activity —
// is applied in bulk without re-running the per-access checks.
func (s *System) AccessStride8(addr uint64, cnt int) sim.Time {
	if s.noMemo || s.lineShift < 3 || s.pageShift < s.lineShift {
		// Geometry where same-line does not imply the memo shortcut;
		// replay the scalar sequence.
		var cost sim.Time
		for i := 0; i < cnt; i++ {
			cost += s.Access(addr + uint64(i)*8)
		}
		return cost
	}
	var cost sim.Time
	line := uint64(s.params.LineSize)
	for cnt > 0 {
		lineEnd := (addr &^ (line - 1)) + line
		k := int((lineEnd - addr + 7) / 8)
		if k > cnt {
			k = cnt
		}
		cost += s.Access(addr)
		if k > 1 {
			s.stats.Accesses += int64(k - 1)
			cost += sim.Time(k-1) * s.params.HitCost
		}
		addr += uint64(k) * 8
		cnt -= k
	}
	return cost
}

// AccessRange simulates a sequential multi-byte access (e.g. a block copy)
// touching every line in [addr, addr+n), bit-identical to one Access per
// line. Lines of the page the previous access mapped are walked here
// directly, one cache touch each with the counters and cost summed at the
// end: Access would skip their D-TLB walk anyway, and touching the line
// it would skip as a memo hit changes nothing, as that line is at the
// front of its set. The first line of any other page goes through
// Access, which maps it.
func (s *System) AccessRange(addr uint64, n int) sim.Time {
	line := uint64(s.params.LineSize)
	end := addr + uint64(n)
	var cost sim.Time
	var walked, misses int64
	for a := addr &^ (line - 1); a < end; {
		if s.noMemo || a>>s.pageShift != s.lastPage {
			cost += s.Access(a)
			a += line
			continue
		}
		for stop := min(end, (s.lastPage+1)<<s.pageShift); a < stop; a += line {
			walked++
			if !s.dcache.touch(a >> s.lineShift) {
				misses++
			}
		}
		s.lastLine = (a - line) >> s.lineShift
	}
	s.stats.Accesses += walked
	s.stats.DCacheMisses += misses
	return cost + sim.Time(walked)*s.params.HitCost + sim.Time(misses)*s.params.CacheMissPen
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}
