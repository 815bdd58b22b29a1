package memsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cvm/internal/sim"
)

func TestColdMissThenHit(t *testing.T) {
	s := NewSystem(SP2Params())
	c1 := s.Access(0x1000)
	c2 := s.Access(0x1000)
	if c1 <= c2 {
		t.Errorf("cold access cost %v not greater than warm cost %v", c1, c2)
	}
	st := s.Stats()
	if st.Accesses != 2 {
		t.Errorf("accesses = %d, want 2", st.Accesses)
	}
	if st.DCacheMisses != 1 {
		t.Errorf("dcache misses = %d, want 1", st.DCacheMisses)
	}
	if st.DTLBMisses != 1 {
		t.Errorf("dtlb misses = %d, want 1", st.DTLBMisses)
	}
	if c2 != SP2Params().HitCost {
		t.Errorf("warm cost = %v, want pure hit cost %v", c2, SP2Params().HitCost)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	s := NewSystem(SP2Params())
	s.Access(0x2000)
	if got := s.Access(0x2000 + 8); got != SP2Params().HitCost {
		t.Errorf("same-line access cost = %v, want hit", got)
	}
	if s.Stats().DCacheMisses != 1 {
		t.Errorf("dcache misses = %d, want 1", s.Stats().DCacheMisses)
	}
}

func TestCapacityEviction(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	// Stream through 2x the cache size, then revisit the start: the first
	// lines must have been evicted.
	span := 2 * p.CacheSize
	for a := 0; a < span; a += p.LineSize {
		s.Access(uint64(a))
	}
	before := s.Stats().DCacheMisses
	s.Access(0)
	if s.Stats().DCacheMisses != before+1 {
		t.Error("line 0 survived a 2x-capacity streaming sweep")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// With 4 ways, 4 distinct tags mapping to one set all fit; a 5th
	// evicts the least recently used.
	p := SP2Params()
	s := NewSystem(p)
	sets := p.CacheSize / (p.LineSize * p.CacheWays)
	stride := uint64(sets * p.LineSize) // same set every time
	for i := uint64(0); i < 4; i++ {
		s.Access(i * stride)
	}
	// Touch tag 0 to make tag 1 the LRU victim.
	s.Access(0)
	s.Access(4 * stride) // evicts tag 1
	before := s.Stats().DCacheMisses
	s.Access(0) // still resident
	if s.Stats().DCacheMisses != before {
		t.Error("recently-used line was evicted instead of LRU line")
	}
	s.Access(1 * stride) // evicted: must miss
	if s.Stats().DCacheMisses != before+1 {
		t.Error("LRU line was not evicted")
	}
}

func TestDTLBPageGranularity(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	s.Access(0)
	s.Access(uint64(p.PageSize - 8)) // same page, different line
	if s.Stats().DTLBMisses != 1 {
		t.Errorf("dtlb misses = %d, want 1 (same page)", s.Stats().DTLBMisses)
	}
	s.Access(uint64(p.PageSize)) // next page
	if s.Stats().DTLBMisses != 2 {
		t.Errorf("dtlb misses = %d, want 2", s.Stats().DTLBMisses)
	}
}

func TestAccessRangeTouchesEveryLine(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	s.AccessRange(0, 8*p.LineSize)
	if got := s.Stats().DCacheMisses; got != 8 {
		t.Errorf("range sweep missed %d lines, want 8", got)
	}
	for _, r := range []struct {
		addr  uint64
		n     int
		lines int64
	}{{1 << 20, 0, 0}, {1<<20 + 8, 0, 1}, {1<<20 + 60, 8, 2}, {1<<20 + 8, p.LineSize, 2}, {1 << 20, p.LineSize, 1}} {
		before := s.Stats().Accesses
		s.AccessRange(r.addr, r.n)
		if got := s.Stats().Accesses - before; got != r.lines {
			t.Errorf("AccessRange(%#x, %d) touched %d lines, want %d", r.addr, r.n, got, r.lines)
		}
	}
}

func TestThreadInterleavingDegradesLocality(t *testing.T) {
	// The paper's central memory-system observation: interleaving the
	// access streams of multiple threads produces more cache misses than
	// running the same streams back-to-back.
	p := SP2Params()
	run := func(interleave bool) int64 {
		s := NewSystem(p)
		const threads = 4
		const footprint = 24 << 10 // per-thread working set: under capacity
		const rounds = 6
		if interleave {
			for r := 0; r < rounds; r++ {
				for th := 0; th < threads; th++ {
					base := uint64(th) << 30
					for a := 0; a < footprint; a += p.LineSize {
						s.Access(base + uint64(a))
					}
				}
			}
		} else {
			for th := 0; th < threads; th++ {
				base := uint64(th) << 30
				for r := 0; r < rounds; r++ {
					for a := 0; a < footprint; a += p.LineSize {
						s.Access(base + uint64(a))
					}
				}
			}
		}
		return s.Stats().DCacheMisses
	}
	solo, mixed := run(false), run(true)
	if mixed <= solo {
		t.Errorf("interleaved misses %d not greater than sequential %d", mixed, solo)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, DCacheMisses: 2, DTLBMisses: 3}
	b := Stats{Accesses: 10, DCacheMisses: 20, DTLBMisses: 30}
	a.Add(b)
	want := Stats{Accesses: 11, DCacheMisses: 22, DTLBMisses: 33}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestAssocPropertyHitAfterTouch(t *testing.T) {
	// Property: immediately re-touching any key is always a hit.
	f := func(keys []uint64) bool {
		a := new(assoc)
		a.init(16, 4, make([]uint32, 16*4))
		for _, k := range keys {
			a.touch(k)
			if !a.touch(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssocPropertyWorkingSetFits(t *testing.T) {
	// Property: any working set of at most `ways` keys per set never
	// misses after the first round.
	f := func(seed uint8) bool {
		const sets, ways = 8, 4
		a := new(assoc)
		a.init(sets, ways, make([]uint32, sets*ways))
		keys := make([]uint64, 0, sets*ways)
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				keys = append(keys, uint64(s)+uint64(w)*sets+uint64(seed%3)*sets*ways)
			}
		}
		for _, k := range keys {
			a.touch(k)
		}
		for _, k := range keys {
			if !a.touch(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostsArePositive(t *testing.T) {
	for _, params := range []Params{SP2Params(), AlphaParams()} {
		s := NewSystem(params)
		var total sim.Time
		for a := uint64(0); a < 1<<16; a += 64 {
			total += s.Access(a)
		}
		if total <= 0 {
			t.Errorf("total cost = %v, want > 0", total)
		}
	}
}

// TestAccessMemoEquivalence drives identical pseudo-random access traces
// through a memoized system and a memo-disabled reference and requires
// bit-identical miss counts and per-access costs. The memo (the
// contiguous-sweep fast path and the same-page D-TLB shortcut) must be a
// pure simulation-speed optimization, invisible in every counter the
// tables report.
func TestAccessMemoEquivalence(t *testing.T) {
	traces := map[string]func(i int) uint64{
		// Contiguous 8-byte sweep: the fast path's target.
		"sweep": func(i int) uint64 { return uint64(i) * 8 },
		// Strided accesses crossing lines every iteration.
		"strided": func(i int) uint64 { return uint64(i) * 96 },
		// Repeated same address.
		"pinned": func(i int) uint64 { return 0x4000 },
		// Pseudo-random: an LCG over a 1 MB region.
		"random": func(i int) uint64 {
			x := uint64(i)*6364136223846793005 + 1442695040888963407
			return (x >> 11) % (1 << 20)
		},
		// Two interleaved sweeps (ping-pong defeats the memo but must
		// still agree).
		"pingpong": func(i int) uint64 {
			if i%2 == 0 {
				return uint64(i) * 4
			}
			return 1<<19 + uint64(i)*4
		},
	}
	for name, trace := range traces {
		fast := NewSystem(SP2Params())
		ref := NewSystem(SP2Params())
		ref.noMemo = true
		for i := 0; i < 20000; i++ {
			a := trace(i)
			if cf, cr := fast.Access(a), ref.Access(a); cf != cr {
				t.Fatalf("%s: access %d at %#x: fast cost %v != reference %v", name, i, a, cf, cr)
			}
		}
		if fast.Stats() != ref.Stats() {
			t.Errorf("%s: stats diverged: fast %+v, reference %+v", name, fast.Stats(), ref.Stats())
		}
		requireSameReplacementState(t, name, fast, ref)
	}
}

// TestAccessMemoEquivalenceMixed runs all three data entry points against
// the memo-disabled reference in one long sequence: scalar accesses,
// 8-byte spans and byte ranges that start anywhere, cross page boundaries
// and revisit a page after enough others to have evicted it from the
// 16-entry D-TLB. The first access is to page 0, which the zero value of
// the page memo would mistake for a page already walked. The third
// geometry's 2 KB cache has fewer sets than a page has lines, so a page
// sweep evicts lines of its own page.
func TestAccessMemoEquivalenceMixed(t *testing.T) {
	tiny := SP2Params()
	tiny.CacheSize = 2 << 10
	tiny.CacheWays = 2
	for gi, params := range []Params{SP2Params(), AlphaParams(), tiny} {
		fast := NewSystem(params)
		ref := NewSystem(params)
		ref.noMemo = true
		x := uint64(gi) + 99
		rnd := func(mod uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 33) % mod
		}
		if cf, cr := fast.Access(8), ref.Access(8); cf != cr {
			t.Fatalf("first access, to page 0: fast cost %v != reference %v", cf, cr)
		}
		page := uint64(params.PageSize)
		for i := 0; i < 4000; i++ {
			// 40 pages over 8 D-TLB sets of 2 ways: pages come back both
			// still mapped and long evicted.
			addr := rnd(40)*page + rnd(page)
			var cf, cr sim.Time
			switch rnd(5) {
			case 0:
				cf, cr = fast.Access(addr), ref.Access(addr)
			case 1: // the same page again, another line: the shortcut's case
				addr2 := addr&^(page-1) + rnd(page)
				cf = fast.Access(addr) + fast.Access(addr2)
				cr = ref.Access(addr) + ref.Access(addr2)
			case 2:
				cnt := int(rnd(3000)) + 1 // up to three pages of words
				cf, cr = fast.AccessStride8(addr&^7, cnt), ref.AccessStride8(addr&^7, cnt)
			case 3: // a copy, then its first byte read again
				n := int(rnd(3*page)) + 1
				cf = fast.AccessRange(addr, n) + fast.Access(addr)
				cr = accessRangeRef(ref, addr, n) + ref.Access(addr)
			case 4: // shorter than two lines, empty, or across a page end
				if rnd(2) == 0 {
					addr = addr | (page - 1) - rnd(uint64(params.LineSize))
				}
				n := int(rnd(2 * uint64(params.LineSize)))
				cf, cr = fast.AccessRange(addr, n), accessRangeRef(ref, addr, n)
			}
			if cf != cr {
				t.Fatalf("geometry %d op %d at %#x: fast cost %v != reference %v", gi, i, addr, cf, cr)
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("geometry %d op %d at %#x: stats %+v != reference %+v", gi, i, addr, fast.Stats(), ref.Stats())
			}
		}
		requireSameReplacementState(t, "mixed", fast, ref)
	}
}

// accessRangeRef is AccessRange as one Access per line of [addr, addr+n);
// an empty range at an unaligned address still touches its line.
func accessRangeRef(s *System, addr uint64, n int) sim.Time {
	var cost sim.Time
	line := uint64(s.params.LineSize)
	for a := addr &^ (line - 1); a < addr+uint64(n); a += line {
		cost += s.Access(a)
	}
	return cost
}

// requireSameReplacementState compares what the next miss would evict,
// everywhere: each set keeps its ways in recency order, so the same tags
// in the same ways of the data cache and the D-TLB are the same LRU state.
func requireSameReplacementState(t *testing.T, name string, fast, ref *System) {
	t.Helper()
	if !slices.Equal(fast.dcache.tags, ref.dcache.tags) || !slices.Equal(fast.dtlb.tags, ref.dtlb.tags) {
		t.Fatalf("%s: replacement state diverged", name)
	}
}

// TestInitRejectsNonPowerOfTwoSets: touch picks its set with a mask, so a
// set count that is not a power of two must not get as far as a lookup.
func TestInitRejectsNonPowerOfTwoSets(t *testing.T) {
	for field, mutate := range map[string]func(*Params){
		"CacheSize/(LineSize*CacheWays)": func(p *Params) { p.CacheSize = 48 << 10 },
		"DTLBSets":                       func(p *Params) { p.DTLBSets = 6 },
		"CacheWays":                      func(p *Params) { p.CacheWays = 0 },
	} {
		p := SP2Params()
		mutate(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", field, err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), field) {
					t.Errorf("%s: Init panicked with %v, want a message naming the field", field, r)
				}
			}()
			NewSystem(p)
		}()
	}
	for _, p := range []Params{SP2Params(), AlphaParams()} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate() = %v on a geometry the tree uses", err)
		}
	}
}

// TestValidateRejectsTagOverflow: a way holds a tag in 32 bits, so a
// geometry whose line (or page) and set bits leave more than that of an
// address below MaxAddr must be refused, and the smallest one that fits
// accepted.
func TestValidateRejectsTagOverflow(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"CacheSize/(LineSize*CacheWays)", func(p *Params) { p.LineSize, p.CacheSize, p.CacheWays = 16, 1<<10, 2 }, false},
		{"DTLBSets", func(p *Params) { p.PageSize, p.DTLBSets = 64, 8 }, false},
		{"CacheSize/(LineSize*CacheWays)", func(p *Params) { p.LineSize, p.CacheSize, p.CacheWays = 32, 1<<10, 1 }, true},
		{"DTLBSets", func(p *Params) { p.PageSize, p.DTLBSets = 64, 16 }, true},
	} {
		p := SP2Params()
		c.mutate(&p)
		err := p.Validate()
		if c.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s %+v: Validate() = %v, want ok %v", c.name, p, err, c.ok)
		}
	}
}

// TestAccessMemoEquivalenceRandomized complements the fixed traces with
// quick.Check-driven address sequences.
func TestAccessMemoEquivalenceRandomized(t *testing.T) {
	f := func(addrs []uint16) bool {
		fast := NewSystem(AlphaParams())
		ref := NewSystem(AlphaParams())
		ref.noMemo = true
		for _, a16 := range addrs {
			// Repeat each address a few times so same-line runs occur.
			for r := 0; r < 3; r++ {
				a := uint64(a16) * 8
				if fast.Access(a) != ref.Access(a) {
					return false
				}
			}
		}
		return fast.Stats() == ref.Stats()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccessStride8Equivalence drives span accesses and an elementwise
// reference in lockstep and requires bit-identical costs, counters, and
// subsequent behavior (the final LRU state must match too, which the
// trailing probe accesses expose).
func TestAccessStride8Equivalence(t *testing.T) {
	for _, params := range []Params{SP2Params(), AlphaParams()} {
		fast := NewSystem(params)
		ref := NewSystem(params)
		spans := []struct {
			addr uint64
			cnt  int
		}{
			{0, 1}, {0, 7}, {8, 8}, {24, 1000}, {8000, 64}, // page-crossing
			{1 << 20, 4096}, {40, 3}, {48, 3}, {0, 2048}, // re-sweep
		}
		for _, sp := range spans {
			cf := fast.AccessStride8(sp.addr, sp.cnt)
			var cr sim.Time
			for i := 0; i < sp.cnt; i++ {
				cr += ref.Access(sp.addr + uint64(i)*8)
			}
			if cf != cr {
				t.Fatalf("span (%#x,%d): cost %v != elementwise %v", sp.addr, sp.cnt, cf, cr)
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("span (%#x,%d): stats %+v != %+v", sp.addr, sp.cnt, fast.Stats(), ref.Stats())
			}
		}
		// Probe addresses that collide with swept sets: any divergence in
		// replacement state shows up as differing hit/miss outcomes.
		for i := 0; i < 4096; i++ {
			a := uint64(i) * 4096
			if fast.Access(a) != ref.Access(a) {
				t.Fatalf("probe %d: replacement state diverged", i)
			}
		}
		if fast.Stats() != ref.Stats() {
			t.Fatalf("post-probe stats diverged: %+v != %+v", fast.Stats(), ref.Stats())
		}
	}
}

// TestAccessStride8EquivalenceRandomized complements the fixed spans with
// quick.Check-driven (addr, cnt) sequences.
func TestAccessStride8EquivalenceRandomized(t *testing.T) {
	f := func(spans []uint16) bool {
		fast := NewSystem(SP2Params())
		ref := NewSystem(SP2Params())
		for _, s16 := range spans {
			addr := uint64(s16&0x0fff) * 8
			cnt := int(s16>>12) + 1
			var cr sim.Time
			cf := fast.AccessStride8(addr, cnt)
			for i := 0; i < cnt; i++ {
				cr += ref.Access(addr + uint64(i)*8)
			}
			if cf != cr || fast.Stats() != ref.Stats() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
