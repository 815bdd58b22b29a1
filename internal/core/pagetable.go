package core

// This file implements the node's sparse page directory and the buffer
// pool behind page copies and twins. Together they make per-node memory
// proportional to the node's working set instead of the address space:
// a 1024-node system over a million shared pages only pays for the
// shards (and page buffers) each node actually touches.
//
// Layout: a two-level directory keyed by page id. The root is a slice of
// shard pointers sized at Start (8 bytes per 64 pages of address space);
// each shard is a fixed array of pageShardSize page structs materialized
// on first touch. Shards are arrays, not per-page pointers, so the
// common clustered working set (apps touch runs of neighboring pages)
// costs one allocation per 64 pages and the access fast path is two
// loads and one branch. Page *structs* are metadata only (~100 bytes);
// the page-size data and twin buffers remain lazy within a shard and
// come from the node's bufPool.

// pageShardBits sets the shard granularity: 64 pages (512 KB of address
// space at the paper's 8 KB pages) per shard.
const pageShardBits = 6

// pageShardSize is the number of pages per shard.
const pageShardSize = 1 << pageShardBits

// pageShard is one materialized run of pageShardSize consecutive pages.
type pageShard struct {
	pages [pageShardSize]page
}

// initPages sizes the node's page directory for total pages. No shard —
// and no page buffer — is allocated here; everything materializes on
// first touch. Only the root pointer table and the node's vector clock
// are built eagerly, so an idle node over a million-page address space
// costs ~128 KB, not gigabytes.
func (n *node) initPages(total int) {
	n.totalPages = total
	n.shards = make([]*pageShard, (total+pageShardSize-1)>>pageShardBits)
	n.vt = NewVClock(n.sys.cfg.Nodes)
	n.pool.pageSize = n.sys.cfg.PageSize
}

// pageAt returns the node's view of pg, materializing its shard on first
// touch. This is the access fast path: one shift, one nil check, one
// index.
func (n *node) pageAt(pg PageID) *page {
	s := n.shards[pg>>pageShardBits]
	if s == nil {
		s = n.newShard(int(pg) >> pageShardBits)
	}
	return &s.pages[pg&(pageShardSize-1)]
}

// peek returns the node's view of pg if its shard has materialized, nil
// otherwise. Tests and audits use it to observe the table without
// perturbing it.
func (n *node) peek(pg PageID) *page {
	s := n.shards[pg>>pageShardBits]
	if s == nil {
		return nil
	}
	return &s.pages[pg&(pageShardSize-1)]
}

// newShard materializes the shard with the given index: every page in it
// gets its id and protocol-defined initial state. Under the
// lazy-multi-writer protocol every node starts with a valid zero page
// (write notices invalidate later); under single-writer only the page's
// manager starts with a copy.
func (n *node) newShard(si int) *pageShard {
	s := new(pageShard)
	nodes := n.sys.cfg.Nodes
	sw := n.sys.cfg.Protocol == ProtocolSW
	base := si << pageShardBits
	for i := range s.pages {
		p := &s.pages[i]
		p.id = PageID(base + i)
		p.state = PageReadOnly
		if sw && (base+i)%nodes != n.id {
			p.state = PageInvalid
		}
	}
	n.shards[si] = s
	n.shardCount++
	return s
}

// materialize allocates p's local copy on first use; pages read as zeros
// until then. The buffer comes from the node's pool (zeroed when
// recycled; fresh buffers are already zero).
func (n *node) materialize(p *page) {
	if p.data != nil {
		return
	}
	p.data = n.pool.get(true)
}

// newTwin snapshots p's current contents as its twin. Twins skip the
// zeroing pass: the full-page copy below overwrites every byte, so a
// recycled buffer cannot leak state.
func (n *node) newTwin(p *page) {
	p.twin = n.pool.get(false)
	copy(p.twin, p.data)
}

// releaseTwin detaches and recycles p's twin after the interval's diff
// has been created (MakeDiff copies the modified bytes out, so nothing
// references the buffer afterward).
func (n *node) releaseTwin(p *page) {
	n.pool.put(&p.twin)
}

// releaseData detaches and recycles p's local copy. Only the
// single-writer protocol may call this (on invalidation or ownership
// transfer): any later access is preceded by a full-page transfer, and
// never-written pages read as zeros everywhere, so dropping the copy is
// observationally invisible. The LRC protocol must NOT release
// invalidated pages — their stale contents are the base diffs are
// applied onto.
func (n *node) releaseData(p *page) {
	n.pool.put(&p.data)
}

// bufPool hands out page-size buffers, one allocation each, so a node
// holds the buffers its pages and twins use and no more. Freed buffers
// (twins at interval close, single-writer copies at invalidation)
// recycle LIFO.
type bufPool struct {
	pageSize int
	free     [][]byte // recycled buffers (contents stale)
	made     int      // buffers allocated
}

// get returns one page-size buffer. Buffers recycled through put hold
// stale bytes and are cleared when zero is set; fresh ones are already
// zero.
func (bp *bufPool) get(zero bool) []byte {
	if k := len(bp.free); k > 0 {
		b := bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
		if zero {
			clear(b)
		}
		return b
	}
	bp.made++
	return make([]byte, bp.pageSize)
}

// put detaches the buffer in *b, if any, and recycles it for a later get.
func (bp *bufPool) put(b *[]byte) {
	if *b != nil {
		bp.free = append(bp.free, *b)
		*b = nil
	}
}

// PageBuffers reports how many page-size buffers the nodes' pools have
// allocated so far, for page copies and twins together.
func (s *System) PageBuffers() (n int) {
	for _, nd := range s.nodes {
		n += nd.pool.made
	}
	return n
}
