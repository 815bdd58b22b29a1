// Package rt is the real-execution runtime: it runs cvm applications on
// OS threads over a byte-level transport (internal/transport) instead of
// under the deterministic simulator. Where the simulator models the
// paper's protocol costs in virtual time, rt actually pays them — pages
// move as bytes, synchronization blocks real goroutines, and Now() is
// wall time.
//
// The coherence protocol is a home-based eager release consistency with
// multiple writers: page p is homed at node p % N, which holds the
// master copy. Self-homed pages are accessed directly at the master (no
// caching, no twins — early visibility of writes is harmless for
// data-race-free programs). Remote pages are cached with a twin created
// on first write; a release operation (Unlock, barrier or reduction
// arrival) diffs dirty pages against their twins, ships the diffs to
// the homes, and awaits acknowledgements before the release message is
// sent; an acquire operation (lock grant, barrier or reduction release)
// flushes and then invalidates the whole cache. For data-race-free
// programs this yields the same memory semantics the simulator's lazy
// protocol provides — and because the applications round shared-sum
// contributions to an exact grid (see apps.qfix), the same checksums,
// bit for bit. That equivalence is the conformance oracle; see
// harness.GuardTransportEquivalence and DESIGN.md §11.
//
// Threading mirrors the simulator's cooperative node scheduler with a
// per-node run token: application code runs only while holding the
// token, and the token is surrendered exactly where the simulator would
// switch threads — on remote fetches, lock waits, and barriers. The
// token's mutex handoff also gives co-located threads the happens-before
// edges the paper's applications assume when they share node-local
// buffers between a computation phase and a local barrier.
package rt

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// Config shapes a real-execution cluster.
type Config struct {
	Nodes          int
	ThreadsPerNode int
	PageSize       int // coherence unit in bytes; multiple of 8

	// Metrics, when non-nil, collects wall-clock protocol metrics
	// (fault service, lock waits, barrier stalls, diff bytes, and the
	// backend-invariant sync counters) into the simulator's snapshot
	// shape, from the events the run emits. With it and Tracer nil no
	// event is built.
	Metrics *Metrics

	// Tracer, when non-nil, receives wall-timestamped protocol events
	// on the same kinds the simulator emits, feeding the existing
	// Chrome exporter. The runtime serializes emissions with an
	// internal mutex, so a plain trace.Recorder is safe here.
	Tracer trace.Tracer
}

// DefaultConfig mirrors the simulator's shape defaults: the given
// geometry with the paper's 4 KB pages.
func DefaultConfig(nodes, threadsPerNode int) Config {
	return Config{Nodes: nodes, ThreadsPerNode: threadsPerNode, PageSize: 4096}
}

// Cluster is the real-execution counterpart of cvm.Cluster: it
// implements cvm.Allocator for application setup, then runs the
// application over a transport backend with RunLoopback (all nodes in
// this process) or RunNode (this process is one node of a multi-process
// cluster).
type Cluster struct {
	cfg       Config
	allocated core.Addr // final once the run starts: it sizes every node's page table

	// pageShift and pageMask split an address when PageSize is a power of
	// two; pageMask is 0 when it is not, and split divides.
	pageShift uint
	pageMask  core.Addr

	// runMu guards rnodes — nil until the run starts — which Status reads
	// while the run is live.
	runMu  sync.Mutex
	rnodes []*rnode
}

// NewCluster validates cfg and returns an empty cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("rt: %d nodes", cfg.Nodes)
	}
	if cfg.ThreadsPerNode < 1 {
		return nil, fmt.Errorf("rt: %d threads per node", cfg.ThreadsPerNode)
	}
	if cfg.PageSize < 8 || cfg.PageSize%8 != 0 {
		return nil, fmt.Errorf("rt: page size %d not a positive multiple of 8", cfg.PageSize)
	}
	if cfg.PageSize > core.MaxPageSize {
		return nil, fmt.Errorf("rt: page size %d: %w", cfg.PageSize, core.ErrPageTooLarge)
	}
	c := &Cluster{cfg: cfg}
	if ps := cfg.PageSize; ps&(ps-1) == 0 {
		c.pageShift, c.pageMask = uint(bits.TrailingZeros(uint(ps))), core.Addr(ps-1)
	}
	return c, nil
}

// split resolves address a to its page and the byte offset inside it.
func (c *Cluster) split(a core.Addr) (core.PageID, int) {
	if c.pageMask != 0 {
		return core.PageID(a >> c.pageShift), int(a & c.pageMask)
	}
	ps := core.Addr(c.cfg.PageSize)
	return core.PageID(a / ps), int(a % ps)
}

// Alloc reserves a page-aligned shared segment (cvm.Allocator). The
// bump-allocation discipline matches the simulator's, so the same setup
// code produces the same address-space layout on both engines.
func (c *Cluster) Alloc(name string, size int) (core.Addr, error) {
	if c.rnodes != nil {
		return 0, errors.New("rt: Alloc after run")
	}
	if size <= 0 {
		return 0, fmt.Errorf("rt: Alloc %q with size %d", name, size)
	}
	base := c.allocated
	pages := (size + c.cfg.PageSize - 1) / c.cfg.PageSize
	c.allocated += core.Addr(pages * c.cfg.PageSize)
	return base, nil
}

// MustAlloc is Alloc, panicking on error (cvm.Allocator).
func (c *Cluster) MustAlloc(name string, size int) core.Addr {
	a, err := c.Alloc(name, size)
	if err != nil {
		panic(fmt.Sprintf("rt: %v", err))
	}
	return a
}

// PageSize reports the coherence unit in bytes (cvm.Allocator).
func (c *Cluster) PageSize() int { return c.cfg.PageSize }

// Nodes reports the cluster's node count (cvm.Allocator).
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// ThreadsPerNode reports the threads per node (cvm.Allocator).
func (c *Cluster) ThreadsPerNode() int { return c.cfg.ThreadsPerNode }

// Result summarizes one node's (or, for RunLoopback, the whole
// cluster's) real execution.
type Result struct {
	Elapsed time.Duration
	Net     transport.Stats
}

// RunLoopback runs the full cluster in this process over the in-process
// loopback transport: Nodes×ThreadsPerNode goroutines execute main,
// multiplexed by per-node run tokens. Net in the result sums all nodes'
// traffic, the error joins all nodes' failures. The application value backing main is shared by every node,
// exactly as a multi-process run shares it by constructing it
// identically in each process — node-local buffers inside it must be
// indexed by NodeID, which the paper's applications already do.
func (c *Cluster) RunLoopback(main func(cvm.Worker)) (Result, error) {
	nodes, err := c.start(transport.NewLoopback(c.cfg.Nodes)...)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = n.run(main)
		}()
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start)}
	res.Net.Peers = make([]transport.PeerStats, c.cfg.Nodes)
	for _, n := range nodes {
		st := n.conn.Stats()
		for _, cl := range transport.Classes() {
			res.Net.Msgs[cl] += st.Msgs[cl]
			res.Net.Bytes[cl] += st.Bytes[cl]
			for j := range st.Peers {
				res.Net.Peers[j].Msgs[cl] += st.Peers[j].Msgs[cl]
				res.Net.Peers[j].Bytes[cl] += st.Peers[j].Bytes[cl]
			}
		}
		n.conn.Close()
	}
	return res, errors.Join(errs...)
}

// RunNode runs this process's node of a multi-process cluster over conn,
// which must already be a connected mesh of Nodes endpoints (see
// transport.Mesh). Every process must call RunNode with an identically
// configured cluster and an identically constructed application; RunNode
// returns once every node's threads have finished (the nodes run an
// internal completion rendezvous so no node's pages disappear while a
// peer still needs them). The caller owns conn and closes it afterwards.
func (c *Cluster) RunNode(conn transport.Conn, main func(cvm.Worker)) (Result, error) {
	nodes, err := c.start(conn)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	err = nodes[0].run(main)
	return Result{Elapsed: time.Since(start), Net: conn.Stats()}, err
}

// start is the prologue of a run: it refuses a second one and a mesh of
// the wrong size, tees the metrics collector after the tracer, and
// builds and publishes (for Status) one node per conn this process runs.
// The nodes share one wall clock, so trace timestamps from different
// nodes share an epoch, and one serialized tracer.
func (c *Cluster) start(conns ...transport.Conn) ([]*rnode, error) {
	if c.rnodes != nil {
		return nil, errors.New("rt: cluster already run")
	}
	if conns[0].Nodes() != c.cfg.Nodes {
		return nil, fmt.Errorf("rt: transport spans %d nodes, cluster configured for %d",
			conns[0].Nodes(), c.cfg.Nodes)
	}
	lt := newLockedTracer(c.cfg.Tracer, c.cfg.Metrics, c.cfg.Nodes)
	clock := sim.NewWallClock()
	nodes := make([]*rnode, len(conns))
	for i, conn := range conns {
		nodes[i] = newNode(c, conn, clock, lt)
	}
	c.runMu.Lock()
	c.rnodes = nodes
	c.runMu.Unlock()
	return nodes, nil
}
