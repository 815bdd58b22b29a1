package core

import (
	"errors"
	"fmt"

	"cvm/internal/memsim"
	"cvm/internal/metrics"
	"cvm/internal/netsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// Config parameterizes a simulated CVM cluster.
type Config struct {
	Nodes          int // processors (one per node, as in the paper)
	ThreadsPerNode int // application threads multiplexed per node

	// Protocol selects the coherence protocol: the paper's lazy
	// multi-writer release consistency (default) or the single-writer
	// write-invalidate baseline.
	Protocol Protocol

	PageSize int // coherence unit, at most MaxPageSize; the paper uses the Alpha's 8 KB pages

	Net netsim.Params // interconnect costs
	Mem memsim.Params // cache/TLB geometry and costs

	SwitchCost   sim.Time // non-preemptive thread switch (paper: 8 µs)
	SignalCost   sim.Time // user-level SIGSEGV delivery (paper: 98 µs)
	MprotectCost sim.Time // one protection change (paper: 49 µs)

	LockLocalCost    sim.Time // local lock fast path bookkeeping
	LocalBarrierCost sim.Time // local barrier release bookkeeping
	DiffServeCost    sim.Time // handler time to serve a stored diff
	DiffCreateCost   sim.Time // extra handler time to materialize a diff

	// DetectRaces enables the multi-writer data-race detector: the paper
	// notes that "concurrent diffs only overlap if the same location is
	// written by multiple processors without intervening synchronization,
	// which is probably a data race". With this set, every fault compares
	// concurrent incoming diffs pairwise and counts overlaps in
	// NodeStats.RacesDetected (quadratic in diffs per fault; off by
	// default).
	DetectRaces bool

	// LIFOScheduler selects the memory-conscious run-queue discipline
	// the paper proposes in §5 ("closer to LIFO than FIFO"): the most
	// recently readied thread runs first, preserving its cache and TLB
	// state. CVM's original scheduler — and the default here — is FIFO.
	LIFOScheduler bool

	// Tracer, when non-nil, receives every protocol and network event
	// (faults, twins/diffs, lock and barrier steps, thread scheduling,
	// message send/deliver) with virtual timestamps. The hot paths guard
	// each emission with a nil check, so a nil Tracer costs one branch
	// and no allocation. Use trace.NewRecorder and the trace exporters
	// to capture and analyze a run.
	Tracer trace.Tracer

	// Metrics, when non-nil, collects virtual-time histograms, per-page
	// and per-lock wait attribution, and the utilization timeline. The
	// system tees it after Tracer, so it derives its metrics from the
	// same events (plus the scheduler hooks' Figure-1 decomposition);
	// observing never advances virtual time — results are bit-identical
	// with metrics on or off. A Registry serves exactly one System.
	Metrics *metrics.Registry

	// EngineWorkers selects the discrete-event execution mode. 0 (the
	// default) is the classic sequential global-horizon loop. Any value
	// ≥ 1 switches to the conservative windowed engine, which partitions
	// event execution by node and advances all nodes window by window,
	// with windows derived from the network's one-way latency lower
	// bound; values > 1 dispatch the nodes of each window across that
	// many OS workers. Results are byte-identical at every worker count
	// (the windowed schedule itself, not the worker count, is what can
	// shift timing relative to mode 0 — see DESIGN.md §10).
	EngineWorkers int

	// CompressDiffs switches netsim byte accounting for diff replies to
	// the compressed wire encoding (run-length + xor8 prefilter, compact
	// vector clocks — see diffwire.go) instead of the legacy fixed-width
	// form. Off by default so seed-sized baselines stay byte-identical;
	// the scaling study runs both settings to quantify the traffic win.
	// Protocol behavior is unaffected either way — only message sizes,
	// and therefore transfer times, change.
	CompressDiffs bool

	// Faults, when non-nil and active, injects deterministic failures:
	// network drops/duplications/reordering/jitter, which the simulated
	// network turns into late deliveries and wasted wire (every message
	// still reaches its handler once), and node pause/slowdown windows.
	// nil means a perfectly reliable cluster, with zero added cost on any
	// hot path. The same *FaultPlan may be shared across concurrently
	// constructed systems — it is read-only.
	Faults *FaultPlan
}

// MaxPageSize is the largest page either backend runs: a diff's Run
// holds an offset and a length in 16 bits each.
const MaxPageSize = 32 << 10

// sharedLimit bounds Alloc's segments; TouchPrivate's regions lie above.
const sharedLimit = 1 << 41

// ErrPageTooLarge is the error a page larger than MaxPageSize fails with.
var ErrPageTooLarge = fmt.Errorf("page larger than %d bytes", MaxPageSize)

// DefaultConfig returns the paper's cluster calibration for the given
// shape: Alpha-like memory geometry, ATM-like interconnect, 8 µs thread
// switches.
func DefaultConfig(nodes, threadsPerNode int) Config {
	return Config{
		Nodes:            nodes,
		ThreadsPerNode:   threadsPerNode,
		PageSize:         8 << 10,
		Net:              netsim.DefaultParams(),
		Mem:              memsim.SP2Params(),
		SwitchCost:       8 * sim.Microsecond,
		SignalCost:       98 * sim.Microsecond,
		MprotectCost:     49 * sim.Microsecond,
		LockLocalCost:    3 * sim.Microsecond,
		LocalBarrierCost: 5 * sim.Microsecond,
		DiffServeCost:    10 * sim.Microsecond,
		DiffCreateCost:   40 * sim.Microsecond,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return errors.New("core: Nodes must be ≥ 1")
	case c.ThreadsPerNode < 1:
		return errors.New("core: ThreadsPerNode must be ≥ 1")
	case c.PageSize < 64 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("core: PageSize %d must be a power of two ≥ 64", c.PageSize)
	case c.PageSize > MaxPageSize:
		return fmt.Errorf("core: PageSize %d: %w", c.PageSize, ErrPageTooLarge)
	}
	return c.Mem.Validate()
}

// Segment names an allocated shared-memory region.
type Segment struct {
	Name string
	Base Addr
	Size int
}

// System is a simulated CVM cluster: the engine, network, per-node
// memory systems, DSM state, and the application threads.
type System struct {
	cfg       Config
	engv      sim.Engine     // the engine, embedded; eng points here
	netv      netsim.Network // the simulated interconnect; net points here
	eng       *sim.Engine
	net       *netsim.Network
	fab       Interconnect // what the protocol sends through; defaults to net
	nodes     []*node
	pageShift uint

	segments  []Segment
	allocated Addr

	episodes map[meetKey]*episode // the manager's open rendezvous, lazily created

	started bool
	t0      sim.Time

	// pendingRunAhead is the sequential engine's run-ahead bound, put in
	// force by the first MarkSteadyState; -1 once it is. Until then the
	// bound is 0, so the reset finds the state it would at any bound.
	pendingRunAhead sim.Time

	// pendingReset defers a MarkSteadyState issued inside a parallel
	// window to the next window commit; -1 means none pending.
	pendingReset sim.Time

	// tracer is cfg.Tracer teed with cfg.Metrics; hot paths nil-check
	// this field. Under the windowed engine it points at demux, which
	// buffers per-node and releases to both in canonical order at every
	// window commit.
	tracer trace.Tracer
	demux  *trace.Demux
}

// NewSystem builds a cluster from cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mem.PageSize != cfg.PageSize {
		cfg.Mem.PageSize = cfg.PageSize
	}
	s := &System{
		cfg:          cfg,
		pageShift:    log2(cfg.PageSize),
		tracer:       cfg.Tracer,
		pendingReset: -1,
	}
	s.engv.Init()
	s.eng = &s.engv
	s.netv.Init(s.eng, cfg.Nodes, cfg.Net)
	s.net = &s.netv
	s.fab = s.net
	eng := s.eng
	if m := cfg.Metrics; m != nil {
		// A nil *Registry is a non-nil Tracer: tee only a live one.
		s.tracer = trace.Tee(cfg.Tracer, m)
		classes := netsim.Classes()
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = c.String()
		}
		m.Configure(cfg.Nodes, names)
	}
	s.net.SetTracer(s.tracer)
	for i := 0; i < cfg.Nodes; i++ {
		proc := eng.AddProc(cfg.SwitchCost)
		proc.SetLIFO(cfg.LIFOScheduler)
		s.nodes = append(s.nodes, newNode(s, i, proc))
	}
	if fp := cfg.Faults; fp != nil {
		if err := fp.Validate(cfg.Nodes); err != nil {
			return nil, err
		}
		s.net.SetFaults(&fp.Net)
		for _, p := range fp.Pauses {
			s.nodes[p.Node].proc.InjectPause(p.From, p.To)
		}
		for _, sl := range fp.Slowdowns {
			s.nodes[sl.Node].proc.InjectSlowdown(sl.From, sl.To, sl.Factor)
		}
	}
	if cfg.EngineWorkers > 0 {
		// Conservative windowed parallel engine: per-node work runs
		// concurrently inside lookahead-bounded windows, cross-node
		// messages defer to the window commit. The lookahead is the
		// interconnect's one-way latency lower bound, which every
		// protocol interaction pays before touching another node.
		eng.SetConservative(cfg.EngineWorkers, cfg.Net.Lookahead())
		eng.SetWindowHook(s.commitWindow)
		s.net.SetDeferred(true)
		if s.tracer != nil {
			s.demux = trace.NewDemux(cfg.Nodes, s.tracer)
			s.tracer = s.demux
			s.net.SetTracer(s.demux)
		}
	} else {
		s.pendingRunAhead = cfg.Net.Lookahead()
		if runAhead > s.pendingRunAhead {
			return nil, fmt.Errorf("core: run-ahead bound %v exceeds the interconnect's lookahead %v", runAhead, s.pendingRunAhead)
		}
		if runAhead >= 0 {
			s.pendingRunAhead = runAhead
		}
		if s.tracer != nil {
			s.tracer = syncTracer{eng, s.tracer}
		}
	}
	eng.SetReasonNamer(reasonName)
	return s, nil
}

// runAhead, when not negative, replaces the interconnect's lookahead as
// the sequential engine's run-ahead bound; SetRunAhead sets it.
var runAhead sim.Time = -1

// SetRunAhead makes every System built until restore is called run its
// sequential engine with the given run-ahead bound (from the steady-state
// reset on) instead of the interconnect's lookahead (a negative bound
// restores the default). The bound changes host time only; the
// determinism guard sweeps it to prove that. A bound above the lookahead
// would let a thread read state a message not yet sent should have
// changed (an Unlock missing a forwarded request), so NewSystem refuses
// it. Not safe while another goroutine builds a System.
func SetRunAhead(bound sim.Time) (restore func()) {
	old := runAhead
	runAhead = bound
	return func() { runAhead = old }
}

// syncTracer holds a trace event emitted from task context until the
// emitting task's turn in the sequential loop (sim.Task.Sync), because
// the recorder and the metrics registry are shared by every node. The
// windowed engine's demux does the same job by buffering.
type syncTracer struct {
	eng *sim.Engine
	trace.Tracer
}

func (s syncTracer) Emit(ev trace.Event) {
	s.eng.Sync()
	s.Tracer.Emit(ev)
}

// commitWindow is the engine's window hook: with every proc quiescent at
// the window boundary it applies a deferred steady-state reset, commits
// the deferred network traffic, and releases the window's trace events
// in canonical order. Each step is a pure function of simulation state,
// keeping the commit identical at every worker count.
func (s *System) commitWindow(limit sim.Time) {
	if s.pendingReset >= 0 {
		t0 := s.pendingReset
		s.pendingReset = -1
		s.applySteadyReset(t0)
	}
	s.net.CommitWindow(limit)
	if s.demux != nil {
		s.demux.Flush(limit)
	}
}

// reasonName names the core block reasons in engine deadlock reports.
func reasonName(r sim.Reason) string {
	switch r {
	case trace.ReasonFault:
		return "fault"
	case trace.ReasonLock:
		return "lock"
	case trace.ReasonBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("%d", int(r))
	}
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Engine exposes the underlying simulator (for tests and tools).
func (s *System) Engine() *sim.Engine { return s.eng }

// Network exposes the simulated interconnect (for traffic statistics).
func (s *System) Network() *netsim.Network { return s.net }

// Alloc reserves a page-aligned shared segment and returns its base
// address. All allocation must happen before Start.
func (s *System) Alloc(name string, size int) (Addr, error) {
	if s.started {
		return 0, errors.New("core: Alloc after Start")
	}
	if size <= 0 {
		return 0, fmt.Errorf("core: Alloc %q with size %d", name, size)
	}
	base := s.allocated
	pages := (size + s.cfg.PageSize - 1) / s.cfg.PageSize
	if uint64(base)+uint64(pages*s.cfg.PageSize) > sharedLimit {
		return 0, fmt.Errorf("core: Alloc %q: shared memory past %d bytes", name, uint64(sharedLimit))
	}
	s.allocated += Addr(pages * s.cfg.PageSize)
	s.segments = append(s.segments, Segment{Name: name, Base: base, Size: size})
	return base, nil
}

// Segments returns the allocated shared segments.
func (s *System) Segments() []Segment { return s.segments }

// Start spawns Nodes × ThreadsPerNode application threads, each running
// main. Threads are numbered contiguously per node.
func (s *System) Start(main func(*Thread)) error {
	if s.started {
		return errors.New("core: Start called twice")
	}
	s.started = true
	totalPages := int(s.allocated) >> s.pageShift
	for _, n := range s.nodes {
		n.initPages(totalPages)
	}
	for i := 0; i < s.cfg.Nodes; i++ {
		n := s.nodes[i]
		n.threads = make([]Thread, s.cfg.ThreadsPerNode)
		for j := range n.threads {
			th := &n.threads[j]
			th.node = n
			th.sys = s
			th.gid = i*s.cfg.ThreadsPerNode + j
			th.lid = j
			th.main = main
			// Threads implement sim.Runner and carry precomputed names,
			// so spawning allocates neither a closure nor a string for
			// common cluster shapes.
			th.task = s.eng.SpawnRunner(n.proc, threadName(i, j), th)
		}
	}
	return nil
}

// Run executes the simulation to completion. Under fault injection a
// message whose every attempt drops aborts the run with an error
// wrapping ErrTransport instead of hanging. A panic in a thread's body
// or a handler reaches Run's caller — a thread's as a *sim.TaskPanic,
// whose text leads with the thread's name (n<node>t<lid>) — and on every
// abnormal exit, error or panic, the threads left parked are unwound
// first.
func (s *System) Run() (err error) {
	defer func() {
		r := recover()
		if u, ok := r.(*netsim.Undelivered); ok {
			r, err = nil, s.undelivered(u)
		}
		if r != nil || err != nil {
			s.eng.Shutdown()
		}
		if r != nil {
			panic(r)
		}
	}()
	defer func() {
		// Release trace events still buffered past the final window
		// commit (including the tail of a failed run).
		if s.demux != nil {
			s.demux.FlushAll()
		}
	}()
	return s.eng.Run()
}

// ErrTransport is wrapped by the error System.Run returns when the
// fault model drops every attempt at a message.
var ErrTransport = errors.New("core: transport failure")

// undelivered attributes a message the network gave up on to the
// interconnect and peer it was sent through, so a failure is
// diagnosable from the error text alone.
func (s *System) undelivered(u *netsim.Undelivered) error {
	return fmt.Errorf("%w: %v message from node %d to node %d (%s via %s) undelivered after %d attempts (T=%v)",
		ErrTransport, u.Class, u.From, u.To, s.fab.PeerAddr(u.To), s.fab.Name(), u.Attempts, u.At)
}

// threadOf maps an engine task back to its application thread. Threads
// are spawned in global-ID order, so a thread's task ID equals its gid;
// the identity check rejects any other task.
func (s *System) threadOf(task *sim.Task) *Thread {
	if task == nil {
		return nil
	}
	tpn := s.cfg.ThreadsPerNode
	id := task.ID()
	if id >= s.cfg.Nodes*tpn {
		return nil
	}
	th := &s.nodes[id/tpn].threads[id%tpn]
	if th.task != task {
		return nil
	}
	return th
}

// threadNames precomputes the diagnostic names of threads in common
// cluster shapes so Start does not allocate one string per thread.
var threadNames [16][16]string

func init() {
	for i := range threadNames {
		for j := range threadNames[i] {
			threadNames[i][j] = fmt.Sprintf("n%dt%d", i, j)
		}
	}
}

func threadName(i, j int) string {
	if i < len(threadNames) && j < len(threadNames[i]) {
		return threadNames[i][j]
	}
	return fmt.Sprintf("n%dt%d", i, j)
}

// MarkSteadyState zeroes every statistics counter and sets the time
// origin, so that reported results cover only the steady-state portion of
// the run. Applications call it from one thread immediately after their
// initialization barrier, mirroring the paper's exclusion of startup.
//
// The sequential engine runs without run-ahead until the first call and
// with it from there on, so what the reset wipes of another node's work
// does not depend on how far that node ran ahead. A later call finds
// run-ahead in force and panics unless every other node is idle, no
// later than the caller (sim.Engine.Alone).
func (t *Thread) MarkSteadyState() {
	s := t.sys
	if s.cfg.EngineWorkers > 0 {
		// Other procs are mid-window; defer the reset to the next
		// window commit, where the engine is quiescent. The reset
		// instant recorded is still this thread's call time, so t0 and
		// the metrics epoch match the sequential semantics.
		if s.pendingReset < 0 || t.task.Now() < s.pendingReset {
			s.pendingReset = t.task.Now()
		}
		return
	}
	t.task.Sync()
	if s.pendingRunAhead < 0 && !s.eng.Alone(t.task) {
		panic("core: MarkSteadyState again while another node is running")
	}
	s.applySteadyReset(t.task.Now())
	if s.pendingRunAhead >= 0 {
		s.eng.SetConservative(0, s.pendingRunAhead)
		s.pendingRunAhead = -1
	}
}

// applySteadyReset performs the MarkSteadyState reset with the engine
// quiescent (thread context in sequential mode, the window commit in
// windowed mode).
func (s *System) applySteadyReset(t0 sim.Time) {
	s.t0 = t0
	s.net.ResetStats()
	for _, n := range s.nodes {
		n.stats = NodeStats{}
		n.mem.ResetStats()
	}
	if m := s.cfg.Metrics; m != nil {
		// Metrics reset at the same instant as the statistics, so
		// histogram sums keep reconciling exactly with NodeStats. Under
		// the windowed engine the events a window emitted before the
		// reset reach the registry at the window's demux flush, after it.
		m.Reset(t0)
	}
}

// RunStats aggregates a finished run's statistics.
type RunStats struct {
	Nodes    []NodeStats // per-node DSM counters and time breakdown
	Mem      []memsim.Stats
	Net      netsim.Stats
	Total    NodeStats    // sum over nodes
	MemTotal memsim.Stats // sum over nodes
	Wall     sim.Time     // steady-state wall time (max node clock − t0)
}

// Stats collects the run's statistics. Call after Run returns.
func (s *System) Stats() RunStats {
	rs := RunStats{
		Net:   s.net.Stats(),
		Nodes: make([]NodeStats, 0, len(s.nodes)),
		Mem:   make([]memsim.Stats, 0, len(s.nodes)),
	}
	for i, n := range s.nodes {
		st := n.stats
		fc := s.net.FaultCounts(NodeID(i))
		st.Retransmits, st.DupsSuppressed = fc.Retransmits, fc.DupsSuppressed
		rs.Nodes = append(rs.Nodes, st)
		rs.Total.Add(st)
		ms := n.mem.Stats()
		rs.Mem = append(rs.Mem, ms)
		rs.MemTotal.Add(ms)
		if wall := n.proc.Clock() - s.t0; wall > rs.Wall {
			rs.Wall = wall
		}
	}
	return rs
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}
