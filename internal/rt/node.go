package rt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// rpage is one page in a node's table (rnode.pages, indexed by page id).
// A page homed at the node has home set and data aliasing its master copy
// for the whole run. Any other page is a cache slot: data is nil until
// fetchPage installs the home's reply and again after invalidate; twin is
// nil while the copy is clean — the first write snapshots the page into
// twin and puts the page on the dirty list.
type rpage struct {
	data []byte
	twin []byte
	home bool
}

// rnode is one node of the real-execution cluster: the per-node run
// token, the page cache, the home (master) copies of pages this node
// owns, and — when this node is a manager — lock and rendezvous state.
//
// Lock ordering: tok > hmu > pmu. Workers run holding tok and may take
// hmu (self-homed access, sync arrival) and pmu (request registration);
// the dispatcher takes hmu and pmu but never tok, so a worker blocked on
// a reply can never deadlock the goroutine that delivers it. wmu is a
// leaf taken by wait and Status alone.
type rnode struct {
	c       *Cluster
	conn    transport.Conn
	self    int
	nodes   int
	threads int // per node

	// tok is the run token: application code and the cache are touched
	// only while holding it. Blocking protocol operations release it, so
	// co-located threads multiplex exactly as under the simulator's
	// cooperative scheduler.
	tok    sync.Mutex
	pages  []rpage        // every allocated page; remote slots guarded by tok
	cached []core.PageID  // remote pages with data: what invalidate walks
	dirty  []core.PageID  // cached pages with a twin
	twins  [][]byte       // free twin buffers; flushAll returns them, write takes them
	held   map[uint32]int // lock id -> global id of the local thread holding it
	// epoch is bumped by invalidate; stale fetches re-request. Writes
	// happen under tok, but Status reads it without, hence atomic.
	epoch atomic.Uint64
	// twinsMade counts the twin buffers allocated: one is made only when
	// the free list is empty, so it is also the most pages the node had
	// dirty at once. Atomic for Status, like epoch.
	twinsMade atomic.Int32

	// hmu guards the bytes of the master copies (home pages' data),
	// manager state, and per-node sync state shared with the dispatcher.
	hmu     sync.Mutex
	locks   map[uint32][]lockWaiter
	meets   map[meetKey]*meet // this node's threads, per open rendezvous
	gathers map[meetKey]*meet // manager (node 0): node arrivals

	// done is the completion rendezvous, a meet no thread arrives at: it
	// releases when every node's threads have finished and no more
	// requests will arrive.
	done *meet

	pmu     sync.Mutex
	pending map[uint32]reply
	reqSeq  atomic.Uint32

	// waits[lid] is what local thread lid is doing, for Status.
	wmu   sync.Mutex
	waits []waiting

	failMu  sync.Mutex
	failErr error
	failCh  chan struct{}

	clock *sim.WallClock

	// tracer carries the run's events to its Tracer and Metrics; nil
	// unless the run asked for either.
	tracer *lockedTracer
}

func newNode(c *Cluster, conn transport.Conn, clock *sim.WallClock, tracer *lockedTracer) *rnode {
	n := &rnode{
		c:       c,
		conn:    conn,
		self:    int(conn.Self()),
		nodes:   c.cfg.Nodes,
		threads: c.cfg.ThreadsPerNode,
		pages:   make([]rpage, int(c.allocated)/c.cfg.PageSize),
		held:    make(map[uint32]int),
		locks:   make(map[uint32][]lockWaiter),
		meets:   make(map[meetKey]*meet),
		gathers: make(map[meetKey]*meet),
		done:    &meet{ch: make(chan []byte)},
		pending: make(map[uint32]reply),
		waits:   make([]waiting, c.cfg.ThreadsPerNode),
		failCh:  make(chan struct{}),
		clock:   clock,
		tracer:  tracer,
	}
	n.meets[doneKey] = n.done
	// The master copies: one zeroed slab cut into this node's home pages.
	ps := c.cfg.PageSize
	masters := make([]byte, (len(n.pages)+n.nodes-1-n.self)/n.nodes*ps)
	for pg := n.self; pg < len(n.pages); pg += n.nodes {
		n.pages[pg] = rpage{data: masters[:ps:ps], home: true}
		masters = masters[ps:]
	}
	return n
}

// setWaiting publishes what worker w is doing, for Status, and returns
// what it was doing before.
func (n *rnode) setWaiting(w *Worker, now waiting) (was waiting) {
	n.wmu.Lock()
	was, n.waits[w.lid] = n.waits[w.lid], now
	n.wmu.Unlock()
	return was
}

// home reports the node holding page pg's master copy.
func (n *rnode) home(pg core.PageID) int { return int(pg) % n.nodes }

// run executes this node's threads to completion: it starts the
// dispatcher, spawns ThreadsPerNode workers multiplexed by the run
// token, and after they finish holds the node's pages available until
// every other node is done too.
func (n *rnode) run(main func(cvm.Worker)) error {
	go n.dispatch()

	var wg sync.WaitGroup
	for lid := 0; lid < n.threads; lid++ {
		w := &Worker{n: n, lid: lid, gid: n.self*n.threads + lid}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(rtAbort); !ok {
						panic(r)
					}
				}
				n.setWaiting(w, waiting{kind: waitDone})
				n.tok.Unlock()
			}()
			n.tok.Lock()
			n.setWaiting(w, waiting{kind: waitRunning})
			main(w)
		}()
	}
	wg.Wait()

	// Completion rendezvous: this node's arrival at the done meet keeps
	// its master pages reachable until every peer has finished.
	if err := n.failure(); err == nil {
		n.post(0, msgArrive, le.AppendUint32(nil, doneKey.id))
		select {
		case <-n.done.ch:
			// Every node is done. Peers still waiting for their own
			// release must not take this node's close for a crash.
			n.conn.Goodbye()
		case <-n.failCh:
		}
	}
	return n.failure()
}

// dispatch is the node's message pump: it serves page and diff requests
// against the master copies, runs manager-side synchronization, and
// routes replies back to blocked workers. It never takes the run token.
func (n *rnode) dispatch() {
	for {
		m, err := n.conn.Recv()
		if err != nil {
			select {
			case <-n.done.ch: // clean shutdown: the run is over
			default:
				n.setFail(err)
			}
			return
		}
		n.handle(m)
	}
}

// handle acts on one protocol message. checkFrame has vouched for every
// index below, page table included; a frame it rejects fails the node,
// naming type and sender.
func (n *rnode) handle(m transport.Message) {
	if err := n.checkFrame(m); err != nil {
		n.setFail(err)
		return
	}
	p := m.Payload
	switch m.Type {
	case msgPageReq:
		reqID, pg := le.Uint32(p), core.PageID(le.Uint32(p[4:]))
		n.hmu.Lock()
		rep := encodePageRep(reqID, pg, n.pages[pg].data) // the reply's one copy
		n.hmu.Unlock()
		n.post(int(m.From), msgPageRep, rep)
	case msgPageRep:
		n.deliver(le.Uint32(p), p[8:8+n.c.cfg.PageSize]) // exactly the page: chunk and twins go by its length
	case msgDiffReq:
		n.hmu.Lock()
		err := applyDiff(n.pages[le.Uint32(p[4:])].data, p)
		n.hmu.Unlock()
		if err != nil {
			n.setFail(fmt.Errorf("%w from node %d", err, m.From))
			return
		}
		n.post(int(m.From), msgDiffAck, le.AppendUint32(nil, le.Uint32(p)))
	case msgDiffAck, msgLockGrant:
		n.deliver(le.Uint32(p), nil)
	case msgLockReq:
		n.lockReq(int(m.From), le.Uint32(p), le.Uint32(p[4:]))
	case msgLockRel:
		n.lockRel(le.Uint32(p))
	case msgArrive:
		n.arrive(int(m.From), p)
	case msgRelease:
		key, result := decodeMeet(p)
		n.release(key, result, -1, 0)
	}
}

// post ships one protocol message: through handle when the recipient is
// this node (the transport forbids self-sends, and a manager is its own
// client), over the wire otherwise, where a transport failure becomes a
// node failure (which aborts every local worker).
func (n *rnode) post(to int, typ uint8, payload []byte) {
	m := transport.Message{
		From:    transport.NodeID(n.self),
		To:      transport.NodeID(to),
		Class:   msgTypes[typ].class,
		Type:    typ,
		Payload: payload,
	}
	if to == n.self {
		n.handle(m)
	} else if err := n.conn.Send(m); err != nil {
		n.setFail(err)
	}
}

// reply is one slot in rnode.pending: the channel its worker waits on
// and how many deliveries are still due before it fires.
type reply struct {
	ch   chan []byte
	left int
}

// newPending registers a slot that fires after due replies (one for a
// request; one per diff for a flush, whose diffs share the request id)
// and returns its request id.
func (n *rnode) newPending(due int) (uint32, chan []byte) {
	id := n.reqSeq.Add(1)
	ch := make(chan []byte, 1)
	n.pmu.Lock()
	n.pending[id] = reply{ch, due}
	n.pmu.Unlock()
	return id, ch
}

// deliver counts one reply to reqID and hands the last one's payload to
// the worker that registered it.
func (n *rnode) deliver(reqID uint32, payload []byte) {
	n.pmu.Lock()
	r, ok := n.pending[reqID]
	r.left--
	if r.left > 0 {
		n.pending[reqID] = r
	} else {
		delete(n.pending, reqID)
	}
	n.pmu.Unlock()
	if !ok {
		n.setFail(fmt.Errorf("reply for unknown request %d", reqID))
	} else if r.left == 0 {
		r.ch <- payload
	}
}

// waitKind says what a worker is doing: one of three states that are not
// waits, or the reason it gave up the run token.
type waitKind uint8

const (
	waitStarting waitKind = iota
	waitRunning
	waitDone
	waitFault        // id = page, peer = its home
	waitLock         // id = lock, peer = its manager
	waitBarrier      // id = barrier
	waitLocalBarrier // id = local barrier
	waitReduce       // id = reduction
	waitFlush        // id = how many diffs went out and are unacknowledged
)

// untraced marks the half of a trace pair a kind does not have.
const untraced trace.Kind = 0xFF

// waitKinds is everything that differs between one wait and another:
// how /status words it ("<name> <noun> <id> [@n<peer>] <age>"), the
// trace events that bracket it (Aux set on both, id in Page when the
// noun is a page and in Sync otherwise), and the block reason of the
// thread.block/unblock pair inside them (0: none).
var waitKinds = [...]struct {
	name, noun string
	start, end trace.Kind
	aux        int64
	reason     sim.Reason
}{
	waitStarting:     {name: "starting"},
	waitRunning:      {name: "running"},
	waitDone:         {name: "done"},
	waitFault:        {"fault-wait", "page", trace.KindFaultStart, trace.KindFaultResolve, 0, trace.ReasonFault},
	waitLock:         {"lock-wait", "lock", trace.KindLockRequest, trace.KindLockAcquire, 0, trace.ReasonLock},
	waitBarrier:      {"barrier-wait", "id", trace.KindBarrierArrive, untraced, trace.BarrierGlobal, trace.ReasonBarrier},
	waitLocalBarrier: {"local-barrier-wait", "id", trace.KindBarrierArrive, untraced, trace.BarrierLocal, trace.ReasonBarrier},
	waitReduce:       {"reduce-wait", "id", trace.KindBarrierArrive, untraced, trace.BarrierReduce, trace.ReasonBarrier},
	waitFlush:        {"flush-wait", "diffs", untraced, untraced, 0, 0},
}

// waiting is one worker's entry in rnode.waits.
type waiting struct {
	kind  waitKind
	id    uint32
	peer  int      // node the reply comes from; -1 when it is not one node
	since sim.Time // when the wait began
}

// wait is the one place a worker gives up the run token to block. It
// records what w waits on and since when, emits the start of kind's
// trace pair and the thread's block, runs send (nil when the request is
// already out), and blocks on ch without the token — letting co-located
// threads run: the paper's latency hiding, for real this time. It
// retakes the token, aborts w if the node failed meanwhile, emits the
// unblock and the end of the pair, both carrying the wait in Dur, and
// returns what arrived on ch (nil when ch was closed). send runs after
// the start event so that a release it provokes is traced after the
// arrival, and so that the wait includes the send. Caller holds tok.
func (n *rnode) wait(w *Worker, kind waitKind, id uint32, peer int, ch <-chan []byte, send func()) []byte {
	k := &waitKinds[kind]
	t0 := n.clock.Now()
	was := n.setWaiting(w, waiting{kind, id, peer, t0})
	ev := trace.Event{Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id), Aux: k.aux}
	if k.noun == "page" {
		ev.Sync, ev.Page = 0, int32(id)
	}
	tr := n.tracer
	if tr != nil {
		ev.T = t0
		if k.start != untraced {
			ev.Kind = k.start
			tr.emit(ev)
		}
		if k.reason != 0 {
			tr.emit(trace.Event{T: t0, Kind: trace.KindThreadBlock, Node: ev.Node, Thread: ev.Thread, Arg: int64(k.reason)})
		}
	}
	if send != nil {
		send()
	}
	n.tok.Unlock()
	var reply []byte
	select {
	case reply = <-ch:
	case <-n.failCh:
	}
	n.tok.Lock()
	n.setWaiting(w, was)
	n.checkFail()
	if tr != nil {
		ev.T = n.clock.Now()
		ev.Dur = ev.T - t0
		if k.reason != 0 {
			ub := ev
			ub.Kind, ub.Arg = trace.KindThreadUnblock, int64(k.reason)
			tr.emit(ub)
		}
		if k.end != untraced {
			ev.Kind = k.end
			if kind == waitLock {
				ev.Aux = 2 // a manager elsewhere: request and grant
				if peer == n.self {
					ev.Aux = 1 // this node's manager: no wire messages
				}
			}
			tr.emit(ev)
		}
	}
	return reply
}

// request sends peer the (reqID, id) request typ and waits for the reply.
func (n *rnode) request(w *Worker, kind waitKind, id uint32, peer int, typ uint8) []byte {
	reqID, ch := n.newPending(1)
	return n.wait(w, kind, id, peer, ch, func() { n.post(peer, typ, encodeReq(reqID, id)) })
}

// rtAbort unwinds a worker goroutine after a node failure; run's
// deferred recover swallows it.
type rtAbort struct{}

func (n *rnode) setFail(err error) {
	n.failMu.Lock()
	if n.failErr == nil {
		n.failErr = fmt.Errorf("rt: node %d: %w", n.self, err)
		close(n.failCh)
	}
	n.failMu.Unlock()
}

func (n *rnode) failure() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

// checkFail aborts the calling worker if the node has failed. Called
// with tok held at protocol entry points.
func (n *rnode) checkFail() {
	select {
	case <-n.failCh:
		panic(rtAbort{})
	default:
	}
}

// fetchPage fills remotely-homed page pg's slot, requesting the page from
// its home while the slot is empty. Caller holds tok. A reply that raced
// an invalidation (epoch moved) is discarded and re-requested; a slot a
// co-located thread filled while this one waited keeps that copy, which
// may already carry local writes. From here to the next invalidate the
// reply's buffer belongs to the slot: nothing else holds it. The
// cache-hit path stays observation-free.
func (n *rnode) fetchPage(w *Worker, pg core.PageID) {
	p := &n.pages[pg]
	for p.data == nil {
		e := n.epoch.Load()
		data := n.request(w, waitFault, uint32(pg), n.home(pg), msgPageReq)
		if n.epoch.Load() == e && p.data == nil {
			p.data = data
			n.cached = append(n.cached, pg)
		}
	}
}

// twinPage snapshots cached page pg before its first write since the
// last flush and puts it on the dirty list. The twin comes off the free
// list when there is one. Caller holds tok.
func (n *rnode) twinPage(p *rpage, pg core.PageID) {
	if last := len(n.twins) - 1; last >= 0 {
		p.twin, n.twins = n.twins[last], n.twins[:last]
	} else {
		p.twin = make([]byte, len(p.data))
		n.twinsMade.Add(1)
	}
	copy(p.twin, p.data)
	n.dirty = append(n.dirty, pg)
}

// flushAll encodes every dirty page's diff against its twin, ships the
// diffs to the homes and waits for all acknowledgements — and again,
// since the token is released during the wait and co-located threads may
// dirty pages meanwhile, until no dirty pages remain, with tok held
// continuously from that final check onward. A twin goes back on the free
// list as soon as its diff is encoded: the encoding is a buffer of its
// own, and what it left in the twin is overwritten by the next twinPage.
// Caller holds tok.
func (n *rnode) flushAll(w *Worker) {
	for len(n.dirty) > 0 {
		reqID, ch := n.newPending(len(n.dirty))
		sent := 0
		for _, pg := range n.dirty {
			p := &n.pages[pg]
			payload := encodeDiff(reqID, pg, p.twin, p.data)
			n.twins = append(n.twins, p.twin)
			p.twin = nil
			if payload == nil {
				n.deliver(reqID, nil) // nothing to acknowledge
				continue
			}
			if tr := n.tracer; tr != nil {
				// Arg, the diff's wire size: the encoded runs, excluding
				// the reqID+page request header. Aux, the simulator's
				// interval index: reqIDs too only grow.
				tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindDiffCreate,
					Node: int32(n.self), Thread: -1, Page: int32(pg),
					Arg: int64(len(payload) - 8), Aux: int64(reqID)})
			}
			n.post(n.home(pg), msgDiffReq, payload)
			sent++
		}
		n.dirty = n.dirty[:0]
		if sent > 0 {
			n.wait(w, waitFlush, uint32(sent), -1, ch, nil)
		}
	}
}

// acquireSync implements the acquire half of release consistency: flush
// anything dirty (invalidating it unflushed would lose writes), then
// empty every cached slot so post-acquire reads refetch current data from
// the homes. Caller holds tok.
func (n *rnode) acquireSync(w *Worker) {
	n.flushAll(w)
	n.epoch.Add(1)
	for _, pg := range n.cached {
		n.pages[pg].data = nil
	}
	n.cached = n.cached[:0]
}
