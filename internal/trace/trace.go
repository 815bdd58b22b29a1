// Package trace is the protocol observability layer: a deterministic,
// zero-overhead-when-disabled event recorder for the simulated DSM.
//
// The protocol and network layers emit typed events (page faults, twin
// and diff lifecycle, lock and barrier protocol steps, thread scheduling,
// message send/deliver) through a nil-checkable Tracer held on the
// cluster Config. Because the simulator dispatches entities in strict
// virtual-time order, the emission sequence — and therefore every
// exported artifact — is bit-reproducible for a given configuration,
// which makes a recorded trace usable as a golden regression oracle for
// the protocol's event ordering.
//
// Two consumers are provided: the Recorder (per-node append-only ring
// buffers) and the Chrome trace-event exporter (chrome.go, loadable in
// Perfetto). The metrics registry (internal/metrics) is a third, which
// rebuilds the paper's §4.1 primitive costs from events alone.
package trace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

	"cvm/internal/sim"
)

// Kind is the type of a protocol event.
type Kind uint8

// Event kinds. The comment after each kind documents which Event fields
// are meaningful for it; unset fields are zero. An event that ends a
// span carries the span's length in Dur, so a consumer (the metrics
// registry) reads it without pairing the event with the one that opened
// it.
const (
	// KindFaultStart: a remote page fault begins at Node. Thread is the
	// faulting thread, Page the faulted page. Emitted before signal
	// delivery is charged, matching the paper's fault cost accounting.
	KindFaultStart Kind = iota
	// KindFaultResolve: the fault on Page at Node completed; the page is
	// consistent (or re-faults). Arg is the number of diffs applied, Dur
	// the span since the fault's start. Thread is the applying thread (-1
	// under the SW protocol, where the completion runs in handler context).
	KindFaultResolve
	// KindTwinCreate: a local write fault created a twin of Page at Node
	// (Thread is the writer).
	KindTwinCreate
	// KindDiffCreate: closing an interval materialized a diff of Page at
	// Node. Thread is the closing thread (-1 when closed from handler
	// context), Arg the diff's wire size in bytes, Aux the interval index.
	KindDiffCreate
	// KindDiffApply: a diff created by node Peer (interval index Arg) was
	// applied to Page at Node by Thread. Aux is the diff's wire size.
	KindDiffApply
	// KindLockRequest: Thread at Node sent a remote acquire for lock
	// Sync toward its manager.
	KindLockRequest
	// KindLockForward: the manager (Node) forwarded the request of node
	// Arg for lock Sync to the last requester, node Peer. Only emitted for
	// the 3-hop path; 2-hop acquires have no forward.
	KindLockForward
	// KindLockGrant: the token for lock Sync arrived back at requester
	// Node (handler context; Thread is -1).
	KindLockGrant
	// KindLockAcquire: Thread at Node now holds lock Sync. Aux says how
	// the lock came: 0 the cached token, 1 a wait with no messages (the
	// local queue; on the real runtime, a manager on this node) — both
	// local acquires — and 2 or 3 the hops of a remote acquire. Dur is the
	// wait: since the request for a remote acquire, since the block for a
	// local one.
	KindLockAcquire
	// KindLockRelease: Thread at Node released lock Sync.
	KindLockRelease
	// KindBarrierArrive: Thread at Node arrived at barrier Sync. Aux is
	// the rendezvous: BarrierGlobal, BarrierLocal, or BarrierReduce for
	// the arrival at a reduction, whose release is not traced.
	KindBarrierArrive
	// KindBarrierRelease: barrier Sync released its waiters at Node.
	// Thread is -1 for global barriers (release runs in handler context);
	// for local barriers (Aux=BarrierLocal) it is the last-arriving
	// thread, which does not block, and Dur is its stall since arriving.
	KindBarrierRelease
	// KindThreadSwitch: Node dispatched Thread after running thread Arg
	// (global ids). Emitted after the switch cost is charged.
	KindThreadSwitch
	// KindThreadBlock: Thread at Node blocked; Arg is the sim.Reason
	// (fault/lock/barrier) for idle-time attribution.
	KindThreadBlock
	// KindThreadUnblock: Thread at Node resumed after a block; Arg is the
	// same reason recorded at block time. It says what the thread waited
	// for — Page for a fault, Sync for a lock or a barrier, and a
	// barrier's Aux — and Dur for how long: since the block for a fault,
	// since the request (remote) or the block (local queue) for a lock,
	// since the arrival for a barrier or a reduction.
	KindThreadUnblock
	// KindMsgSend: a message of class Sync left Node's egress for Peer.
	// T is the departure time (after egress queueing), Arg the payload
	// bytes, Aux the network-wide message id linking send to delivery,
	// Dur the egress queueing. Dur is -1 on the fault model's replica of
	// a duplicated message and on a copy that got through after drops,
	// which queued on their first attempt only; such a copy keeps its
	// first attempt's T and delivers late by the backoff.
	KindMsgSend
	// KindMsgDeliver: the message with id Aux (class Sync, Arg bytes,
	// sent by Peer) started its handler at Node. Dur is the span since
	// its departure, Page the ingress queueing in nanoseconds.
	KindMsgDeliver
	// KindMsgDrop: the fault model dropped the attempt with id Aux
	// (class Sync, Arg bytes) from Node to Peer at its departure time T;
	// Dur is its egress queueing, -1 on a retransmission. No matching
	// deliver event exists for the id.
	KindMsgDrop
	// KindMsgDup: the fault model duplicated the message with id Aux
	// (class Sync, Arg bytes) from Node to Peer; the replica travels as
	// a separate msg.send/msg.deliver pair with its own id.
	KindMsgDup
	// KindRetransmit: Node re-sent to Peer a message whose attempt with
	// id Aux the fault model dropped, at T when its timer fired. Sync is
	// the class, Arg the retry attempt (1-based).
	KindRetransmit
	// KindDupSuppress: Node discarded the replica with id Aux of a
	// duplicated message from Peer when it arrived at T; its handler
	// never runs. Sync is the class.
	KindDupSuppress

	numKinds
)

// Block reasons, the Arg of thread.block and thread.unblock: what a
// blocked thread waits for — a remote page fetch, a lock acquire, a
// global or local barrier or a reduction — in Figure 1's breakdown.
const (
	ReasonFault sim.Reason = 1 + iota
	ReasonLock
	ReasonBarrier
)

// Rendezvous kinds, the Aux of barrier.arrive and barrier.release and of
// the thread.unblock that ends a barrier wait.
const (
	BarrierGlobal int64 = iota
	BarrierLocal
	BarrierReduce
)

var kindNames = [numKinds]string{
	KindFaultStart:     "fault.start",
	KindFaultResolve:   "fault.resolve",
	KindTwinCreate:     "twin.create",
	KindDiffCreate:     "diff.create",
	KindDiffApply:      "diff.apply",
	KindLockRequest:    "lock.request",
	KindLockForward:    "lock.forward",
	KindLockGrant:      "lock.grant",
	KindLockAcquire:    "lock.acquire",
	KindLockRelease:    "lock.release",
	KindBarrierArrive:  "barrier.arrive",
	KindBarrierRelease: "barrier.release",
	KindThreadSwitch:   "thread.switch",
	KindThreadBlock:    "thread.block",
	KindThreadUnblock:  "thread.unblock",
	KindMsgSend:        "msg.send",
	KindMsgDeliver:     "msg.deliver",
	KindMsgDrop:        "msg.drop",
	KindMsgDup:         "msg.dup",
	KindRetransmit:     "msg.retransmit",
	KindDupSuppress:    "msg.dupsuppress",
}

// String returns the dotted event-kind name used in exports and reports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NumKinds reports the number of defined event kinds.
func NumKinds() int { return int(numKinds) }

// Event is one recorded protocol event. The struct is fixed-size and
// pointer-free, so passing it by value (Emit, Events, an exporter's open
// spans) never allocates; the Recorder keeps it packed (see chunk).
// Field meaning is kind-specific; see the Kind constants.
type Event struct {
	T    sim.Time // virtual timestamp
	Dur  sim.Time // the span an end event closes (see the Kind constants)
	Seq  uint64   // global emission order, assigned by the Recorder
	Aux  int64    // kind-specific auxiliary value
	Arg  int64    // kind-specific argument
	Kind Kind

	Node   int32 // node the event is recorded against
	Thread int32 // global thread id; -1 for handler (engine) context
	Page   int32 // page id, for page-related kinds
	Sync   int32 // lock/barrier id, or message class for msg kinds
	Peer   int32 // other node involved, for cross-node kinds
}

// Tracer receives protocol events. The hot paths guard every emission
// with a nil check on the configured Tracer, so a disabled tracer costs
// one predictable branch and nothing else.
type Tracer interface {
	Emit(e Event)
}

// A ring keeps its node's events packed in chunks and decodes one only
// when it is read. An event is its kind, a mask of its non-zero fields
// among Dur, Aux, Arg, Thread, Page, Sync and Peer, then zigzag uvarints
// of T and Seq less the chunk's first and of the masked fields; Node is
// the ring's index. Payloads pack up from the front of the chunk's one
// block and a 2-byte offset an event down from its end. Recorded runs
// cost 18 to 21 bytes an event, not Event's 64.
const (
	chunkEvents = 1 << 12                         // the most events a chunk holds
	chunkBytes  = 64 << 10                        // the largest block, which a 2-byte offset spans
	maxPacked   = 2 + 9*binary.MaxVarintLen64 + 2 // the largest event with its offset
)

type chunk struct {
	b              []byte // payloads from the front, offsets from the back
	n, first, used int    // events packed, the oldest of them dropped by the bound, payload bytes
	t0             sim.Time
	seq0           uint64 // the first event's T and Seq
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (c *chunk) put(e *Event) {
	if c.n == 0 {
		c.t0, c.seq0 = e.T, e.Seq
	}
	b := c.b[c.used:]
	k := 2 + binary.PutUvarint(b[2:], zigzag(int64(e.T-c.t0)))
	k += binary.PutUvarint(b[k:], e.Seq-c.seq0)
	b[0], b[1] = byte(e.Kind), 0
	for f, v := range [...]int64{int64(e.Dur), e.Aux, e.Arg, int64(e.Thread), int64(e.Page), int64(e.Sync), int64(e.Peer)} {
		if v != 0 {
			b[1] |= 1 << f
			k += binary.PutUvarint(b[k:], zigzag(v))
		}
	}
	c.n++
	binary.LittleEndian.PutUint16(c.b[len(c.b)-2*c.n:], uint16(c.used))
	c.used += k
}

func (c *chunk) payload(i int) []byte {
	return c.b[binary.LittleEndian.Uint16(c.b[len(c.b)-2*i-2:]):]
}

// t decodes the i-th event's T alone.
func (c *chunk) t(i int) sim.Time {
	u, _ := binary.Uvarint(c.payload(i)[2:])
	return c.t0 + sim.Time(unzigzag(u))
}

// event decodes the i-th event, recorded at node.
func (c *chunk) event(i int, node int32) Event {
	b := c.payload(i)
	var v [9]uint64 // T, Seq, then the fields in mask order
	for m, k := uint(b[1])<<2|3, 2; m != 0; m &= m - 1 {
		u, n := binary.Uvarint(b[k:])
		v[bits.TrailingZeros(m)] = u
		k += n
	}
	return Event{
		T: c.t0 + sim.Time(unzigzag(v[0])), Seq: c.seq0 + v[1], Kind: Kind(b[0]), Node: node,
		Dur: sim.Time(unzigzag(v[2])), Aux: unzigzag(v[3]), Arg: unzigzag(v[4]),
		Thread: int32(unzigzag(v[5])), Page: int32(unzigzag(v[6])), Sync: int32(unzigzag(v[7])), Peer: int32(unzigzag(v[8])),
	}
}

type ring struct {
	chunks  []chunk
	n       int // retained events
	dropped uint64
	spare   []byte // a drained block, for the next chunk
}

// add packs e. A ring's first chunk starts at 1 KB and grows by a
// quarter when full, which keeps a quiet node of a wide cluster small;
// later ones are allocated whole, so a ring copies nothing else. At its
// bound a ring drops its oldest event, and once all of a chunk's events
// are dropped its block becomes the next chunk's: a full ring does not
// allocate.
func (r *ring) add(e *Event, limit int) {
	k := len(r.chunks) - 1
	if k < 0 {
		r.chunks, k = append(r.chunks, chunk{b: make([]byte, 1<<10)}), 0
	} else if c := &r.chunks[k]; c.n == chunkEvents || len(c.b)-c.used-2*c.n < maxPacked {
		if c.n == chunkEvents || len(c.b) == chunkBytes {
			if r.spare == nil {
				r.spare = make([]byte, chunkBytes)
			}
			r.chunks, k = append(r.chunks, chunk{b: r.spare}), k+1
			r.spare = nil
		} else {
			old := len(c.b)
			c.b = slices.Grow(c.b, min(chunkBytes, old*5/4)-old)
			c.b = c.b[:min(cap(c.b), chunkBytes)]
			copy(c.b[len(c.b)-2*c.n:], c.b[old-2*c.n:old]) // the offsets to the new end
		}
	}
	r.chunks[k].put(e)
	if limit <= 0 || r.n < limit {
		r.n++
		return
	}
	r.dropped++
	c := &r.chunks[0]
	if c.first++; c.first == c.n { // not the last chunk: that one holds e
		r.spare = c.b
		r.chunks = append(r.chunks[:0], r.chunks[1:]...)
	}
}

// Recorder is the standard Tracer: per-node ring buffers with an
// optional bound. The simulator runs one entity at a time with
// happens-before edges between consecutive dispatches, so the Recorder
// needs no locking; it must not be shared between concurrent systems.
type Recorder struct {
	nodes          int
	threadsPerNode int
	limit          int // per-node event cap; 0 means unbounded
	seq            uint64
	rings          []ring
}

// NewRecorder returns a Recorder for a cluster of the given shape.
// limit bounds the events kept per node (oldest dropped first);
// limit <= 0 keeps everything.
func NewRecorder(nodes, threadsPerNode, limit int) *Recorder {
	return &Recorder{
		nodes:          nodes,
		threadsPerNode: threadsPerNode,
		limit:          limit,
		rings:          make([]ring, nodes),
	}
}

// Nodes reports the cluster's node count.
func (r *Recorder) Nodes() int { return r.nodes }

// ThreadsPerNode reports the cluster's per-node threading level.
func (r *Recorder) ThreadsPerNode() int { return r.threadsPerNode }

// Emit records e, stamping its global sequence number. It implements
// Tracer.
func (r *Recorder) Emit(e Event) {
	r.seq++
	e.Seq = r.seq
	r.rings[e.Node].add(&e, r.limit)
}

// Len reports the number of retained events across all nodes.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.rings {
		n += r.rings[i].n
	}
	return n
}

// Dropped reports how many events the per-node bound discarded.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for i := range r.rings {
		n += r.rings[i].dropped
	}
	return n
}

// NodeEvents returns node n's retained events in emission order.
func (r *Recorder) NodeEvents(n int) []Event {
	g := &r.rings[n]
	out := make([]Event, 0, g.n)
	for ci := range g.chunks {
		c := &g.chunks[ci]
		for i := c.first; i < c.n; i++ {
			out = append(out, c.event(i, int32(n)))
		}
	}
	return out
}

// Events returns every retained event merged across nodes, ordered by
// (timestamp, sequence). The sequence tiebreak makes the order total and
// deterministic: same run, same slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.Len())
	for e := range r.ordered() {
		out = append(out, *e)
	}
	return out
}

// ordered yields the retained events in (T, Seq) order, each valid until
// the next iteration. A ring holds its node's events in Seq order and a
// node's clock seldom runs back far (a delivery is recorded at its send
// with a later T), so each ring is put in T order by insertion repair,
// then a loser tree merges the rings' heads, decoded, by (T, Seq).
func (r *Recorder) ordered() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		perm := make([]int32, r.Len())
		var keys []key
		var m merger
		for i := range r.rings {
			if g := &r.rings[i]; g.n > 0 {
				p := perm[:g.n:g.n]
				perm = perm[g.n:]
				keys = g.sortByT(p, keys[:0])
				m.heads = append(m.heads, cursor{ring: g, node: int32(i), perm: p})
				m.heads[len(m.heads)-1].next()
			}
		}
		k := len(m.heads)
		m.tree = make([]int32, k)
		for w := m.build(1); k > 0 && len(m.heads[w].perm) > 0; {
			c := &m.heads[w]
			if !yield(&c.e) {
				return
			}
			if c.perm = c.perm[1:]; len(c.perm) > 0 {
				c.next()
			} else {
				c.e = spent
			}
			for n := (int(w) + k) / 2; n > 0; n /= 2 {
				if l := m.tree[n]; m.less(l, w) {
					m.tree[n], w = w, l
				}
			}
		}
	}
}

// spent is the head of a cursor past its ring's end: later than any event.
var spent = Event{T: math.MaxInt64, Seq: math.MaxUint64}

// cursor is one ring's place in the merge: its head, decoded, and the
// handles of the head and the events after it, in T order.
type cursor struct {
	e    Event
	ring *ring
	node int32
	perm []int32
}

// next decodes the head. A handle is the event's chunk in the ring, then
// the event in the chunk: handles order as emission does.
func (c *cursor) next() {
	h := c.perm[0]
	c.e = c.ring.chunks[h/chunkEvents].event(int(h%chunkEvents), c.node)
}

// merger is a loser tree over the cursors, laid out like a heap: the
// leaves are k..2k-1 (cursor i at k+i), and each inner node 1..k-1 holds
// the cursor that lost the match there. A new head climbs from its leaf
// and plays only the losers on its path, one comparison a level.
type merger struct {
	heads []cursor
	tree  []int32
}

func (m *merger) less(a, b int32) bool {
	x, y := &m.heads[a].e, &m.heads[b].e
	return x.T < y.T || x.T == y.T && x.Seq < y.Seq
}

// build plays the matches below node n and returns their winner.
func (m *merger) build(n int) int32 {
	if n >= len(m.heads) {
		return int32(n - len(m.heads))
	}
	a, b := m.build(2*n), m.build(2*n+1)
	if m.less(b, a) {
		a, b = b, a
	}
	m.tree[n] = b
	return a
}

// sortByT fills p with the ring's handles sorted by T, ties in emission
// order, which is Seq order, through keys, which it returns for reuse:
// each T is decoded once. Insertion repair is linear in the displacement;
// once a ring has cost more than repairBudget moves an event, the rest is
// sorted instead, so a ring with no order to lean on still costs
// O(n log n).
func (g *ring) sortByT(p []int32, keys []key) []key {
	keys = slices.Grow(keys, g.n)
	for ci := range g.chunks {
		c := &g.chunks[ci]
		for i := c.first; i < c.n; i++ {
			keys = append(keys, key{c.t(i), int32(ci*chunkEvents + i)})
		}
	}
	budget := repairBudget * len(keys)
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1].t > k.t; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
		if budget -= i - j; budget < 0 {
			slices.SortFunc(keys, func(a, b key) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.h, b.h)) })
			break
		}
	}
	for i, k := range keys {
		p[i] = k.h
	}
	return keys
}

type key struct {
	t sim.Time
	h int32 // handle
}

// repairBudget is the insertion moves an event may cost on average
// before sortByT gives up on repair. Recorded rings take a few.
const repairBudget = 64
