package core

// This file implements the node's sparse page directory and the buffer
// pool behind page copies and twins. Together they make per-node memory
// proportional to the pages the node touches instead of the address
// space: a 1024-node system over a million shared pages pays, per node,
// for a 2 KB root and the one or two shards its threads touch.
//
// Layout: the root is a slice of leaves sized at Start, one per 4,096
// pages; a leaf is an array of 256 shard pointers made on the first
// touch of its range (leaf 0 lives in the node), and a shard a fixed
// array of pageShardSize page structs made on the first touch of one of
// its pages. Shards are arrays, not per-page pointers, so the common
// clustered working set costs one allocation per 16 pages and the access
// fast path is three loads and two branches. Page *structs* are metadata
// only (120 bytes: a shard and its header fit the 2 KB size class); the
// page-size data and twin buffers remain lazy within a shard and come
// from the node's bufPool. A write notice for a page whose shard does not
// exist stays in its interval record (reached from node.intervals) and
// is folded in when the shard is made, so notices for pages a node never
// touches cost it nothing beyond the record.

// pageShardBits sets the shard granularity: 16 pages (128 KB of address
// space at the paper's 8 KB pages) per shard.
const pageShardBits = 4

// pageShardSize is the number of pages per shard.
const pageShardSize = 1 << pageShardBits

// pageLeafBits sets a directory leaf's reach: 256 shards, 4,096 pages.
const pageLeafBits = 8

// pageShard is one materialized run of pageShardSize consecutive pages.
type pageShard struct {
	pages [pageShardSize]page
}

// pageLeaf is one directory leaf: the shards of 1<<pageLeafBits·16 pages.
type pageLeaf [1 << pageLeafBits]*pageShard

// initPages sizes the node's page directory for total pages. No shard —
// and no page buffer — is allocated here; everything materializes on
// first touch. Only the root and the node's vector clock are built
// eagerly, so an idle node over a million-page address space costs
// about 8 KB at 1024 nodes (leaf 0 and its clock included), not gigabytes.
func (n *node) initPages(total int) {
	n.totalPages = total
	n.root = make([]*pageLeaf, max(1, (total-1)>>(pageShardBits+pageLeafBits)+1))
	n.root[0] = &n.leaf0
	n.vt = NewVClock(n.sys.cfg.Nodes)
	n.pool.pageSize = n.sys.cfg.PageSize
}

// shardOf returns pg's shard, nil if it has not materialized.
func (n *node) shardOf(pg PageID) *pageShard {
	if l := n.root[pg>>(pageShardBits+pageLeafBits)]; l != nil {
		return l[pg>>pageShardBits&(1<<pageLeafBits-1)]
	}
	return nil
}

// pageAt returns the node's view of pg, materializing its shard on first
// touch. This is the access fast path: two shifts, two nil checks, three
// indexes.
func (n *node) pageAt(pg PageID) *page {
	s := n.shardOf(pg)
	if s == nil {
		s = n.newShard(pg)
	}
	return &s.pages[pg&(pageShardSize-1)]
}

// peek returns the node's view of pg if its shard has materialized, nil
// otherwise. Tests and audits use it to observe the table without
// perturbing it.
func (n *node) peek(pg PageID) *page {
	if s := n.shardOf(pg); s != nil {
		return &s.pages[pg&(pageShardSize-1)]
	}
	return nil
}

// newShard materializes the shard holding pg (and its leaf, on the
// first touch of the leaf's range): every page in it gets its id and
// protocol-defined initial state. Under the lazy-multi-writer protocol
// every node starts with a valid zero page, and the write notices the
// node already holds for the shard's pages are folded in; under
// single-writer only the page's manager starts with a copy.
func (n *node) newShard(pg PageID) *pageShard {
	l := &n.root[pg>>(pageShardBits+pageLeafBits)]
	if *l == nil {
		*l = new(pageLeaf)
	}
	s := new(pageShard)
	nodes := n.sys.cfg.Nodes
	sw := n.sys.cfg.Protocol == ProtocolSW
	base := pg &^ (pageShardSize - 1)
	for i := range s.pages {
		p := &s.pages[i]
		p.id = base + PageID(i)
		p.state = PageReadOnly
		if sw && int(p.id)%nodes != n.id {
			p.state = PageInvalid
		}
	}
	// applyList skipped these pages: every record n.intervals reaches has
	// been applied, none of them to a page here (applied is 0, no data).
	// So each writer wants the newest interval naming the page: the walk
	// runs newest first, and the largest index wins.
	for x, info := range n.intervals {
		if x == n.id {
			continue
		}
		for ; info != nil; info = info.prev {
			for _, q := range info.Pages {
				if q&^(pageShardSize-1) == base {
					p := &s.pages[q-base]
					w := p.writer(x)
					w.wanted = max(w.wanted, info.Idx)
					p.state = PageInvalid
				}
			}
		}
	}
	(*l)[pg>>pageShardBits&(1<<pageLeafBits-1)] = s
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

// Shards reports how many page-table shards the nodes have made so far.
func (s *System) Shards() (n int) {
	for _, nd := range s.nodes {
		n += nd.shardCount
	}
	return n
}
