package core

import "math/bits"

// copyset is the set of nodes holding a valid copy of one page, one bit
// per node. It replaces the former uint64 bitmask, whose shift arithmetic
// silently wrapped at 64 nodes (node 65's bit landed on node 1).
// Enumeration is ascending by node, which keeps invalidation fan-out
// order — and therefore the simulation schedule — deterministic and
// identical to the bitmask's 0..N scan.
type copyset []uint64

// reset makes the set contain exactly {node}, sizing it for a cluster of
// nodes nodes on first use.
func (cs *copyset) reset(node, nodes int) {
	if *cs == nil {
		*cs = make(copyset, (nodes+63)>>6)
	} else {
		clear(*cs)
	}
	cs.add(node)
}

// add inserts node into the set.
func (cs copyset) add(node int) { cs[node>>6] |= 1 << uint(node&63) }

// contains reports membership.
func (cs copyset) contains(node int) bool { return cs[node>>6]&(1<<uint(node&63)) != 0 }

// size reports the member count.
func (cs copyset) size() int {
	total := 0
	for _, w := range cs {
		total += bits.OnesCount64(w)
	}
	return total
}

// appendMembers appends the members except skip1 and skip2 to dst,
// ascending by node, and returns the extended slice.
func (cs copyset) appendMembers(dst []int32, skip1, skip2 int) []int32 {
	for wi, w := range cs {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			m := wi<<6 + b
			if m == skip1 || m == skip2 {
				continue
			}
			dst = append(dst, int32(m))
		}
	}
	return dst
}
