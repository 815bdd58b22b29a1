package core

// PageID indexes an 8 KB coherence unit within the shared address space.
type PageID int32

// Addr is a byte offset into the shared address space. All nodes see the
// same addresses; each node keeps its own (possibly stale) copy of every
// page it has touched.
type Addr int64

// PageState is a node's current access right to one page, the software
// equivalent of the mprotect-managed protection CVM used.
type PageState uint8

// Page states.
const (
	// PageInvalid: write notices for unseen intervals are pending; any
	// access faults and fetches the missing diffs.
	PageInvalid PageState = iota
	// PageReadOnly: contents are current; a write faults locally to
	// create a twin.
	PageReadOnly
	// PageReadWrite: the node holds a twin and is collecting writes.
	PageReadWrite
)

// String returns a short name for the state.
func (s PageState) String() string {
	switch s {
	case PageInvalid:
		return "invalid"
	case PageReadOnly:
		return "readonly"
	case PageReadWrite:
		return "readwrite"
	default:
		return "unknown"
	}
}

// page is one node's view of a shared page.
type page struct {
	id    PageID
	state PageState

	// data is the local copy; nil means the page has never been
	// materialized locally and reads as zeros.
	data []byte

	// twin is a snapshot from the first write access of the current
	// write-collection episode; diffs are computed against it.
	twin []byte

	// openDirty reports whether the page is in the open interval's dirty
	// list (a write notice will be emitted when the interval closes).
	openDirty bool

	// writers tracks, per remote writer that has ever been named by a
	// write notice for this page, the highest interval index applied to
	// data and the highest index wanted by a received notice. The page
	// is consistent when applied covers wanted for every writer. Entries
	// are sorted ascending by node and only exist for actual writers, so
	// a page with two writers costs two entries regardless of cluster
	// size (the dense per-node vectors this replaces cost O(nodes) per
	// page per node).
	writers []pageWriter

	// diffs holds the diffs this node created for the page, ascending by
	// interval index (the storage serveDiffRequest answers from).
	diffs []*Diff

	// fault is the in-flight remote fetch for this page, if any
	// (lazy-multi-writer protocol).
	fault *faultState

	// swf is the in-flight directory transaction, if any (single-writer
	// protocol).
	swf *swFault
}

// pageWriter is one remote writer's interval coverage on one page.
type pageWriter struct {
	node    int32
	applied int32 // highest interval index reflected in data
	wanted  int32 // highest interval index named by a write notice
}

// writer returns the tracking entry for the given writer node, inserting
// a zero entry (keeping writers sorted by node) if none exists. The lookup
// is a binary search: a falsely-shared page has one entry per node that
// ever wrote it (every node of a scaleout run), and a fault looks up one
// entry per diff and per requested range.
func (p *page) writer(node int) *pageWriter {
	i, hi := 0, len(p.writers)
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if int(p.writers[m].node) < node {
			i = m + 1
		} else {
			hi = m
		}
	}
	if i < len(p.writers) && int(p.writers[i].node) == node {
		return &p.writers[i]
	}
	p.writers = append(p.writers, pageWriter{})
	copy(p.writers[i+1:], p.writers[i:])
	p.writers[i] = pageWriter{node: int32(node)}
	return &p.writers[i]
}

// consistent reports whether every write notice received for the page has
// been applied.
func (p *page) consistent() bool {
	for i := range p.writers {
		if p.writers[i].wanted > p.writers[i].applied {
			return false
		}
	}
	return true
}

// missingFrom returns the nodes holding diffs this node still needs,
// with the (from, to] interval ranges to request. Entries come out
// ascending by node because writers is sorted.
func (p *page) missingFrom() []diffRange {
	out := make([]diffRange, 0, len(p.writers))
	for i := range p.writers {
		w := &p.writers[i]
		if w.wanted > w.applied {
			out = append(out, diffRange{node: int(w.node), from: w.applied, to: w.wanted})
		}
	}
	return out
}

// diffRange names the diffs of one writer node needed to validate a page.
type diffRange struct {
	node     int
	from, to int32 // half-open (from, to]
}
