package transport

import (
	"fmt"
	"sync"
)

// loopbackConn is one node's endpoint of an in-process channel mesh. All
// N endpoints share the mesh; each Send appends to the receiver's
// unbounded inbox under the receiver's lock and signals its condition
// variable. An unbounded queue is deliberate: the coherence protocol has
// nodes flushing into each other symmetrically at barriers, and a
// bounded queue without a drain running would deadlock the mesh
// (distributed head-of-line blocking). Memory is bounded in practice by
// the protocol's request/reply discipline.
type loopbackConn struct {
	self  NodeID
	peers []*loopbackConn

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []Message
	closed bool

	statsMu sync.Mutex
	stats   Stats
}

// NewLoopback builds an in-process mesh of nodes endpoints. Endpoint i
// belongs to node i. Every pair of endpoints is connected; messages
// between a pair are FIFO (one lock per receiver), messages from
// different senders interleave arbitrarily — like a real interconnect.
func NewLoopback(nodes int) []Conn {
	if nodes < 1 {
		panic(fmt.Sprintf("transport: NewLoopback(%d)", nodes))
	}
	mesh := make([]*loopbackConn, nodes)
	for i := range mesh {
		c := &loopbackConn{self: NodeID(i), peers: mesh}
		c.cond = sync.NewCond(&c.mu)
		c.stats.Peers = make([]PeerStats, nodes)
		mesh[i] = c
	}
	conns := make([]Conn, nodes)
	for i, c := range mesh {
		conns[i] = c
	}
	return conns
}

func (c *loopbackConn) Self() NodeID    { return c.self }
func (c *loopbackConn) Nodes() int      { return len(c.peers) }
func (c *loopbackConn) Backend() string { return "loopback" }

func (c *loopbackConn) PeerAddr(to NodeID) string {
	return fmt.Sprintf("loopback node %d", to)
}

func (c *loopbackConn) Send(m Message) error {
	if m.To < 0 || int(m.To) >= len(c.peers) || m.To == c.self {
		return fmt.Errorf("loopback node %d: send to invalid peer %d", c.self, m.To)
	}
	m.From = c.self
	p := c.peers[m.To]
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("loopback node %d -> %s: %w", c.self, c.PeerAddr(m.To), ErrClosed)
	}
	p.inbox = append(p.inbox, m)
	p.mu.Unlock()
	p.cond.Signal()
	c.statsMu.Lock()
	c.stats.Msgs[m.Class]++
	c.stats.Bytes[m.Class] += int64(len(m.Payload))
	c.stats.Peers[m.To].Msgs[m.Class]++
	c.stats.Peers[m.To].Bytes[m.Class] += int64(len(m.Payload))
	c.statsMu.Unlock()
	return nil
}

func (c *loopbackConn) Recv() (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.inbox) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(c.inbox) == 0 {
		return Message{}, fmt.Errorf("loopback node %d: recv: %w", c.self, ErrClosed)
	}
	m := c.inbox[0]
	// Shift rather than reslice so the backing array is reusable once
	// drained; the queue stays small in steady state.
	n := copy(c.inbox, c.inbox[1:])
	c.inbox[n] = Message{}
	c.inbox = c.inbox[:n]
	return m, nil
}

func (c *loopbackConn) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := c.stats
	out.Peers = append([]PeerStats(nil), c.stats.Peers...)
	return out
}

// Goodbye is a no-op: a loopback endpoint never reads a peer's
// departure as a failure (Recv blocks until the local Close).
func (c *loopbackConn) Goodbye() {}

func (c *loopbackConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}
