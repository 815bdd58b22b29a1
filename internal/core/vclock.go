// Package core implements CVM, a multiple-writer lazy-release-consistency
// software DSM, extended with the paper's per-node multi-threading: thread
// switches on remote requests, per-node barrier aggregation, per-lock local
// queues, local barriers, and reduction support.
//
// The package runs on the deterministic simulated cluster provided by
// internal/sim and internal/netsim, and charges the costs the paper
// measured (mprotect, signal delivery, twin copies, diff creation and
// application, message overheads) into virtual time.
package core

// VClock is a vector timestamp with one component per node. Component i
// is the index of the most recent interval of node i whose effects are
// visible. Intervals are numbered from 1; 0 means "none seen".
type VClock []int32

// NewVClock returns a zero vector clock for n nodes.
func NewVClock(n int) VClock { return make(VClock, n) }

// Clone returns an independent copy of v.
func (v VClock) Clone() VClock {
	c := make(VClock, len(v))
	copy(c, v)
	return c
}

// Covers reports whether v dominates or equals w componentwise, i.e.
// every interval visible in w is also visible in v.
func (v VClock) Covers(w VClock) bool {
	for i := range v {
		if v[i] < w[i] {
			return false
		}
	}
	return true
}

// CoversInterval reports whether interval idx of the given node is visible
// in v.
func (v VClock) CoversInterval(node int, idx int32) bool {
	return v[node] >= idx
}

// Merge raises each component of v to at least the corresponding component
// of w (the standard vector-clock join, performed at acquires).
func (v VClock) Merge(w VClock) {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
}

// Before reports whether v happens-before w: v ≤ w componentwise and
// v ≠ w. Incomparable clocks denote concurrent intervals.
func (v VClock) Before(w VClock) bool {
	strict := false
	for i := range v {
		if v[i] > w[i] {
			return false
		}
		if v[i] < w[i] {
			strict = true
		}
	}
	return strict
}

// sum adds v's components up: a.Before(b) implies a.sum() < b.sum().
func (v VClock) sum() int64 {
	t := int64(0)
	for _, c := range v {
		t += int64(c)
	}
	return t
}

// wireBytes reports the encoded size of a vector clock on the simulated
// wire (4 bytes per component).
func (v VClock) wireBytes() int { return 4 * len(v) }
