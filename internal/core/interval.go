package core

// IntervalInfo describes one closed interval of one node: its index and
// the pages it modified (its write notices). IntervalInfos travel on
// lock-grant and barrier-release messages; applying one invalidates the
// named pages. A record has no vector time and never changes once
// closed, so nodes share them: each links to its creator's previous one,
// and a node keeps the newest it knows of each creator (node.intervals,
// indexed by creator).
type IntervalInfo struct {
	Idx   int32
	Pages []PageID
	prev  *IntervalInfo // the creator's interval Idx-1, nil for the first
}

// bytesAfter sums the wire size of the records from in back to, but not
// including, interval idx of the same creator: each a header, a vector
// time of nodes components at 4 bytes, and 4 bytes per write notice.
func (in *IntervalInfo) bytesAfter(idx int32, nodes int) (b int) {
	for ; in != nil && in.Idx > idx; in = in.prev {
		b += 12 + 4*nodes + 4*len(in.Pages)
	}
	return b
}
