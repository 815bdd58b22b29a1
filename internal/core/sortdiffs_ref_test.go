package core

import "sort"

// sortDiffsReference is the ordering algorithm sortDiffs replaced, kept
// verbatim as the oracle the differential tests compare against: a map of
// per-creator queues, and at every step a scan of every head against every
// other head with a full VClock.Before. The order it emits is the order
// the golden trace, BASELINE_metrics.json and every recorded virtual time
// were produced with.
func sortDiffsReference(ds []*Diff) {
	if len(ds) < 2 {
		return
	}
	queues := make(map[int][]*Diff)
	var nodeIDs []int
	for _, d := range ds {
		if _, ok := queues[d.Node]; !ok {
			nodeIDs = append(nodeIDs, d.Node)
		}
		queues[d.Node] = append(queues[d.Node], d)
	}
	sort.Ints(nodeIDs)
	for _, id := range nodeIDs {
		q := queues[id]
		sort.Slice(q, func(i, j int) bool { return q[i].Idx < q[j].Idx })
	}

	out := ds[:0]
	for remaining := len(ds); remaining > 0; remaining-- {
		emit := -1
		for _, id := range nodeIDs {
			q := queues[id]
			if len(q) == 0 {
				continue
			}
			safe := true
			for _, other := range nodeIDs {
				oq := queues[other]
				if other == id || len(oq) == 0 {
					continue
				}
				if oq[0].VT.Before(q[0].VT) {
					safe = false
					break
				}
			}
			if safe {
				emit = id
				break
			}
		}
		if emit < 0 {
			// Unreachable for well-formed vector times; fall back to
			// the lowest node to guarantee progress.
			for _, id := range nodeIDs {
				if len(queues[id]) > 0 {
					emit = id
					break
				}
			}
		}
		out = append(out, queues[emit][0])
		queues[emit] = queues[emit][1:]
	}
}
