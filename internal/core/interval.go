package core

// IntervalInfo describes one closed interval of one node: its position in
// the partial order (VT) and the pages it modified (its write notices).
// IntervalInfos travel on lock-grant and barrier-release messages; applying
// one invalidates the named pages.
type IntervalInfo struct {
	Node  int
	Idx   int32
	VT    VClock
	Pages []PageID
}

// infosBytes sums the wire size of a batch of interval records: each a
// header, its vector time, and 4 bytes per write notice.
func infosBytes(infos []*IntervalInfo) int {
	n := 0
	for _, in := range infos {
		n += 12 + in.VT.wireBytes() + 4*len(in.Pages)
	}
	return n
}
