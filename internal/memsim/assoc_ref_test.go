package memsim

import (
	"fmt"
	"slices"
	"testing"
)

// assocRef is the stamp-based LRU tag array assoc replaced: every way
// carries the clock value of its last touch, a miss replaces the way with
// the smallest stamp (the first such way, so empty ways, stamp 0, fill in
// index order before anything is evicted). It is kept as the reference
// the recency-ordered sets are checked against.
type assocRef struct {
	sets  int
	ways  int
	tags  []uint64 // tag 0 means empty (tags stored +1)
	stamp []uint64 // LRU stamps, parallel to tags
	tick  uint64
}

func newAssocRef(sets, ways int) *assocRef {
	return &assocRef{sets: sets, ways: ways, tags: make([]uint64, sets*ways), stamp: make([]uint64, sets*ways)}
}

func (a *assocRef) touch(key uint64) bool {
	base := int(key&uint64(a.sets-1)) * a.ways
	tags := a.tags[base : base+a.ways]
	stamp := a.stamp[base:][:len(tags)]
	a.tick++
	stored := key + 1
	victim, oldest := 0, stamp[0]
	for i, tag := range tags {
		if tag == stored {
			stamp[i] = a.tick
			return true
		}
		if stamp[i] < oldest {
			victim, oldest = i, stamp[i]
		}
	}
	tags[victim] = stored
	stamp[victim] = a.tick
	return false
}

// recency returns set's tags most recent first, empty ways last: the
// order assoc keeps them in, each as assoc stores it — the key bits the
// set does not imply, plus one.
func (a *assocRef) recency(set int) []uint32 {
	base := set * a.ways
	idx := make([]int, a.ways)
	for i := range idx {
		idx[i] = base + i
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		if a.stamp[i] > a.stamp[j] {
			return -1
		}
		if a.stamp[i] < a.stamp[j] {
			return 1
		}
		return 0
	})
	out := make([]uint32, a.ways)
	for i, w := range idx {
		if k := a.tags[w]; k != 0 {
			out[i] = uint32((k-1)>>log2(a.sets)) + 1
		}
	}
	return out
}

// TestAssocMatchesReference drives the recency-ordered sets and the stamp
// reference with the same key streams — a resident working set that fits,
// one that overflows its sets, and cold keys mixed in — and requires the
// same hit or miss on every touch and, after each, the same per-set
// recency order.
func TestAssocMatchesReference(t *testing.T) {
	for _, sets := range []int{1, 2, 8, 128} {
		for _, ways := range []int{1, 2, 3, 4, 8} {
			for _, hot := range []int{ways, sets * ways, 2 * sets * ways} {
				t.Run(fmt.Sprintf("sets=%d/ways=%d/hot=%d", sets, ways, hot), func(t *testing.T) {
					got := new(assoc)
					got.init(sets, ways, make([]uint32, sets*ways))
					ref := newAssocRef(sets, ways)
					x := uint64(sets*131 + ways*7 + hot)
					rnd := func(mod uint64) uint64 {
						x = x*6364136223846793005 + 1442695040888963407
						return (x >> 33) % mod
					}
					cold := uint64(1 << 30)
					for i := 0; i < 20000; i++ {
						key := rnd(uint64(hot))
						if rnd(5) == 0 {
							key = cold
							cold++
						}
						if g, r := got.touch(key), ref.touch(key); g != r {
							t.Fatalf("touch %d of key %d: hit %v, reference %v", i, key, g, r)
						}
						set := int(key & uint64(sets-1))
						if g, r := got.tags[set*ways:(set+1)*ways], ref.recency(set); !slices.Equal(g, r) {
							t.Fatalf("touch %d of key %d: set %d is %v, reference %v", i, key, set, g, r)
						}
					}
				})
			}
		}
	}
}

// TestAssocMatchesReferenceHighAddresses drives the D-cache and D-TLB
// geometries with the keys of real addresses from both ends of the
// simulated space — shared pages from 0 and TouchPrivate's regions from
// 2^41 up to MaxAddr, which share every set — and requires the same hit
// or miss and per-set recency order as the full-key reference: a tag
// that lost a bit would alias a low and a high line.
func TestAssocMatchesReferenceHighAddresses(t *testing.T) {
	p := SP2Params()
	for _, g := range []struct {
		name       string
		sets, ways int
		shift      uint
	}{
		{"dcache", p.CacheSize / (p.LineSize * p.CacheWays), p.CacheWays, log2(p.LineSize)},
		{"dtlb", p.DTLBSets, p.DTLBWays, log2(p.PageSize)},
	} {
		got := new(assoc)
		got.init(g.sets, g.ways, make([]uint32, g.sets*g.ways))
		ref := newAssocRef(g.sets, g.ways)
		x := uint64(g.sets)
		rnd := func(mod uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 11) % mod
		}
		for i := 0; i < 20000; i++ {
			low := rnd(uint64(g.sets*g.ways*3)) << g.shift
			var addr uint64
			switch rnd(3) {
			case 0:
				addr = low
			case 1: // the same set and low bits, 2^41 higher
				addr = 1<<41 + low
			default: // the top of the space
				addr = MaxAddr - 1 - rnd(uint64(g.sets*g.ways*3))<<g.shift
			}
			key := addr >> g.shift
			if gh, rh := got.touch(key), ref.touch(key); gh != rh {
				t.Fatalf("%s: touch %d of %#x: hit %v, reference %v", g.name, i, addr, gh, rh)
			}
			set := int(key & uint64(g.sets-1))
			if gt, rt := got.tags[set*g.ways:(set+1)*g.ways], ref.recency(set); !slices.Equal(gt, rt) {
				t.Fatalf("%s: touch %d of %#x: set %d is %v, reference %v", g.name, i, addr, set, gt, rt)
			}
		}
	}
}
