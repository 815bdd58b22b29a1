// Package cluster is the control plane for multi-process CVM runs: it
// bootstraps N cvm-node processes into one DSM cluster over the TCP
// transport, distributes the run configuration, coordinates the start,
// and collects results.
//
// One process coordinates (node 0, -listen); the others join (-join).
// The control handshake, in newline-delimited JSON over one TCP
// connection per member:
//
//	member                         coordinator
//	  | -- hello{node, dataAddr} ----> |   collect N-1 members
//	  | <-- welcome{spec, dataAddrs} - |   config + membership out
//	  |     (both sides form the data mesh; transport.Mesh)
//	  | -- ready --------------------> |   member meshed + app built
//	  | <-- go ----------------------- |   coordinated start
//	  |     (both sides run the application; rt.RunNode)
//	  | -- result{ok, err, stats} ---> |   per-node outcome in
//	  | <-- done{checksum, ok, err} -- |   global verdict out
//
// Failure at any step closes the control connection, which fails the
// peer's pending read — no step blocks past its deadline. The checksum
// in done is computed on the coordinator (global thread 0 lives there)
// and must match the deterministic simulator's for the same
// configuration; see DESIGN.md §11.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/rt"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// protoVersion guards against mixed cvm-node builds in one cluster.
// Version 2 added the metrics snapshot to the result message.
const protoVersion = 2

// Spec is the run configuration the coordinator distributes; members
// take everything but their identity from it.
type Spec struct {
	App     string `json:"app"`
	Size    string `json:"size"` // test, small, paper
	Nodes   int    `json:"nodes"`
	Threads int    `json:"threads"` // per node
	Page    int    `json:"page"`    // coherence unit in bytes
}

// Validate checks the spec the way a node will meet it: by building,
// and discarding, the application and cluster it describes.
func (s Spec) Validate() error {
	_, _, err := buildApp(s, nil, nil)
	return err
}

// Options tune a node's participation.
type Options struct {
	// DataAddr is the host:port this node's DSM data listener binds
	// (port 0 picks a free port). The host part must be reachable by
	// every peer; the default suits single-host clusters only.
	DataAddr string
	// Timeout bounds every control-plane step and the data-mesh
	// formation.
	Timeout time.Duration
	// Log, when non-nil, receives one-line progress messages.
	Log io.Writer
	// Interrupt, when non-nil, aborts the run when it fires (cvm-node
	// wires SIGINT/SIGTERM here): every control and data connection
	// this node holds is closed, so each blocked step — local and on
	// every peer — fails promptly with an attributed error instead of
	// leaving the cluster hung (a coordinator tells members why first).
	Interrupt <-chan struct{}
	// Tracer, when non-nil, receives this node's wall-timestamped
	// protocol events (rt.Config.Tracer).
	Tracer trace.Tracer
	// Started, when non-nil, is called once the data mesh is formed and
	// the application is built, just before the run begins. The cvm-node
	// debug server uses it to attach its live introspection sources.
	Started func(RunInfo)
}

// RunInfo hands a started node's live objects to Options.Started.
type RunInfo struct {
	Node    int
	Spec    Spec
	Cluster *rt.Cluster
	Conn    transport.Conn
	Metrics *rt.Metrics
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.DataAddr == "" {
		out.DataAddr = "127.0.0.1:0"
	}
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Minute
	}
	if out.Log == nil {
		out.Log = io.Discard
	}
	return out
}

// Outcome is what a node knows at the end of a run. Checksum is the
// global checksum (computed on the coordinator, distributed in done);
// Net counts this node's own data traffic. Metrics is the node's own
// wall-clock snapshot on a member; on the coordinator it is every
// node's snapshot merged in node order (deterministic for a given set
// of member snapshots).
type Outcome struct {
	Checksum float64
	Elapsed  time.Duration
	Net      transport.Stats
	Metrics  *metrics.Snapshot
}

// ctrlMsg is the single wire shape of every control message; Type
// selects which fields are meaningful.
type ctrlMsg struct {
	Type      string   `json:"type"`
	Proto     int      `json:"proto,omitempty"`
	Node      int      `json:"node,omitempty"`
	Nodes     int      `json:"nodes,omitempty"`
	DataAddr  string   `json:"dataAddr,omitempty"`
	Spec      *Spec    `json:"spec,omitempty"`
	DataAddrs []string `json:"dataAddrs,omitempty"`
	OK        bool     `json:"ok,omitempty"`
	Err       string   `json:"err,omitempty"`
	Checksum  float64  `json:"checksum,omitempty"`
	ElapsedMS int64    `json:"elapsedMs,omitempty"`
	Msgs      int64    `json:"msgs,omitempty"`
	Bytes     int64    `json:"bytes,omitempty"`
	// Metrics carries a member's wall-clock metrics snapshot in the
	// result message (proto 2), opaque to the framing layer.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// ctrlConn frames ctrlMsgs over one TCP connection with per-step
// deadlines.
type ctrlConn struct {
	c       net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	timeout time.Duration
}

func newCtrlConn(c net.Conn, timeout time.Duration) *ctrlConn {
	return &ctrlConn{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c), timeout: timeout}
}

func (cc *ctrlConn) send(m ctrlMsg) error {
	cc.c.SetWriteDeadline(time.Now().Add(cc.timeout))
	if err := cc.enc.Encode(m); err != nil {
		return fmt.Errorf("cluster: send %s: %w", m.Type, err)
	}
	return nil
}

// recv reads the next message, requiring the given type.
func (cc *ctrlConn) recv(wantType string) (ctrlMsg, error) {
	cc.c.SetReadDeadline(time.Now().Add(cc.timeout))
	var m ctrlMsg
	if err := cc.dec.Decode(&m); err != nil {
		return m, fmt.Errorf("cluster: awaiting %s: %w", wantType, err)
	}
	if m.Type != wantType {
		if m.Type == "done" && m.Err != "" {
			// A coordinator aborting mid-handshake reports why.
			return m, fmt.Errorf("cluster: coordinator failed: %s", m.Err)
		}
		return m, fmt.Errorf("cluster: got %q, want %q", m.Type, wantType)
	}
	return m, nil
}

// buildApp constructs the application and the real-execution cluster a
// node runs; every node builds both identically from the spec. met is
// always attached: cluster runs collect wall-clock metrics
// unconditionally so the coordinator can merge and report them.
func buildApp(spec Spec, met *rt.Metrics, tracer trace.Tracer) (apps.App, *rt.Cluster, error) {
	size, err := apps.ParseSize(spec.Size)
	if err != nil {
		return nil, nil, err
	}
	return apps.NewRT(spec.App, size, rt.Config{
		Nodes:          spec.Nodes,
		ThreadsPerNode: spec.Threads,
		PageSize:       spec.Page,
		Metrics:        met,
		Tracer:         tracer,
	})
}

// closers collects the connections an interrupt must sever, closed
// last-added first (a coordinator's farewells go out before its
// listeners close). Adding after the trigger fired closes immediately,
// so a connection created while the interrupt raced is still torn down.
type closers struct {
	mu    sync.Mutex
	fired bool
	list  []io.Closer
}

func (cl *closers) add(c io.Closer) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.fired {
		c.Close()
		return
	}
	cl.list = append(cl.list, c)
}

func (cl *closers) fire() {
	cl.mu.Lock()
	list := cl.list
	cl.list = nil
	cl.fired = true
	cl.mu.Unlock()
	for i := len(list) - 1; i >= 0; i-- {
		list[i].Close()
	}
}

// farewell closes a coordinator's member connection after telling the
// member it was interrupted (one Write: never interleaved with a send),
// so the member fails with that reason instead of a bare EOF.
type farewell struct{ c net.Conn }

func (f farewell) Close() error {
	line, _ := json.Marshal(ctrlMsg{Type: "done", Err: "interrupted"})
	f.c.Write(append(line, '\n'))
	return f.c.Close()
}

// watchInterrupt severs every registered connection when interrupt
// fires; stop (closed when the run ends) retires the watcher.
func watchInterrupt(interrupt, stop <-chan struct{}, cl *closers) {
	go func() {
		select {
		case <-interrupt:
			cl.fire()
		case <-stop:
		}
	}()
}

// decodeMemberMetrics parses the snapshot a member shipped in its
// result message.
func decodeMemberMetrics(node int, raw json.RawMessage) (*metrics.Snapshot, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("cluster: node %d: result carried no metrics", node)
	}
	var s metrics.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("cluster: node %d: bad metrics payload: %w", node, err)
	}
	return &s, nil
}

// Coordinate runs node 0: it accepts Nodes-1 members on listen,
// distributes spec, forms the data mesh, runs the application, collects
// every member's result, validates the checksum against the sequential
// reference, and distributes the verdict.
func Coordinate(listen string, spec Spec, opts Options) (Outcome, error) {
	o := opts.withDefaults()
	if err := spec.Validate(); err != nil {
		return Outcome{}, err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return Outcome{}, fmt.Errorf("cluster: control listen %s: %w", listen, err)
	}
	defer ln.Close()

	dataLn, err := transport.ListenTCP(0, o.DataAddr)
	if err != nil {
		return Outcome{}, err
	}
	var sever closers
	stop := make(chan struct{})
	defer close(stop)
	watchInterrupt(o.Interrupt, stop, &sever)
	sever.add(ln)
	sever.add(dataLn)
	fmt.Fprintf(o.Log, "coordinator: control on %s, data on %s, waiting for %d members\n",
		ln.Addr(), dataLn.Addr(), spec.Nodes-1)

	// Membership exchange: every member introduces itself with its data
	// address; ids must be unique and in range.
	members := make([]*ctrlConn, spec.Nodes) // by node id; 0 unused
	dataAddrs := make([]string, spec.Nodes)
	dataAddrs[0] = dataLn.Addr()
	deadline := time.Now().Add(o.Timeout)
	abort := func(err error) (Outcome, error) {
		for _, m := range members {
			if m != nil {
				m.send(ctrlMsg{Type: "done", Err: err.Error()})
				m.c.Close()
			}
		}
		dataLn.Close()
		return Outcome{}, err
	}
	for joined := 0; joined < spec.Nodes-1; joined++ {
		if d, ok := ln.(*net.TCPListener); ok {
			d.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			return abort(fmt.Errorf("cluster: %d/%d members joined: %w", joined, spec.Nodes-1, err))
		}
		sever.add(farewell{c})
		cc := newCtrlConn(c, o.Timeout)
		hello, err := cc.recv("hello")
		switch {
		case err != nil:
		case hello.Proto != protoVersion:
			err = fmt.Errorf("cluster: member %s speaks protocol %d, coordinator %d",
				c.RemoteAddr(), hello.Proto, protoVersion)
		case hello.Node < 1 || hello.Node >= spec.Nodes:
			err = fmt.Errorf("cluster: member claims node id %d, want 1..%d", hello.Node, spec.Nodes-1)
		case members[hello.Node] != nil:
			err = fmt.Errorf("cluster: duplicate node id %d (from %s)", hello.Node, c.RemoteAddr())
		case hello.Nodes != 0 && hello.Nodes != spec.Nodes:
			err = fmt.Errorf("cluster: node %d expects %d nodes, coordinator runs %d",
				hello.Node, hello.Nodes, spec.Nodes)
		case hello.DataAddr == "":
			err = fmt.Errorf("cluster: node %d sent no data address", hello.Node)
		}
		if err != nil {
			cc.send(ctrlMsg{Type: "done", Err: err.Error()})
			c.Close()
			return abort(err)
		}
		members[hello.Node] = cc
		dataAddrs[hello.Node] = hello.DataAddr
		fmt.Fprintf(o.Log, "coordinator: node %d joined from %s (data %s)\n",
			hello.Node, c.RemoteAddr(), hello.DataAddr)
	}
	defer func() {
		for _, m := range members {
			if m != nil {
				m.c.Close()
			}
		}
	}()

	// Config distribution, then the data mesh (the members mesh on
	// receipt of welcome; Mesh blocks until all streams are up).
	for _, m := range members[1:] {
		if err := m.send(ctrlMsg{Type: "welcome", Proto: protoVersion, Spec: &spec, DataAddrs: dataAddrs}); err != nil {
			return abort(err)
		}
	}
	conn, err := dataLn.Mesh(dataAddrs, time.Until(deadline))
	if err != nil {
		return abort(err)
	}
	defer conn.Close()
	sever.add(conn)

	met := rt.NewMetrics()
	app, cl, err := buildApp(spec, met, o.Tracer)
	if err != nil {
		return abort(err)
	}
	for id, m := range members[1:] {
		if _, err := m.recv("ready"); err != nil {
			return abort(fmt.Errorf("cluster: node %d: %w", id+1, err))
		}
	}
	for _, m := range members[1:] {
		if err := m.send(ctrlMsg{Type: "go"}); err != nil {
			return abort(err)
		}
	}
	fmt.Fprintf(o.Log, "coordinator: mesh up, %d nodes x %d threads running %s/%s\n",
		spec.Nodes, spec.Threads, spec.App, spec.Size)
	if o.Started != nil {
		o.Started(RunInfo{Node: 0, Spec: spec, Cluster: cl, Conn: conn, Metrics: met})
	}

	res, runErr := cl.RunNode(conn, app.Main)

	// Result collection: every member reports, run error or not, so a
	// one-node failure is attributed rather than a hang. Member metrics
	// snapshots merge into the coordinator's own in node order, so the
	// merged snapshot is deterministic for a given set of member results.
	var firstErr error
	if runErr != nil {
		firstErr = fmt.Errorf("cluster: node 0: %w", runErr)
	}
	merged := met.Snapshot()
	for id, m := range members[1:] {
		r, err := m.recv("result")
		if err != nil {
			err = fmt.Errorf("cluster: node %d: %w", id+1, err)
		} else if !r.OK {
			err = fmt.Errorf("cluster: node %d failed: %s", id+1, r.Err)
		} else {
			fmt.Fprintf(o.Log, "coordinator: node %d done in %v (%d msgs, %d KB)\n",
				id+1, time.Duration(r.ElapsedMS)*time.Millisecond, r.Msgs, r.Bytes/1024)
			ms, merr := decodeMemberMetrics(id+1, r.Metrics)
			if merr != nil {
				err = merr
			} else {
				merged.Merge(ms)
				continue
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		if err := app.Check(); err != nil {
			firstErr = fmt.Errorf("cluster: %w", err)
		}
	}

	out := Outcome{Checksum: app.Checksum(), Elapsed: res.Elapsed, Net: res.Net, Metrics: merged}
	verdict := ctrlMsg{Type: "done", OK: firstErr == nil, Checksum: out.Checksum}
	if firstErr != nil {
		verdict.Err = firstErr.Error()
	}
	for _, m := range members[1:] {
		m.send(verdict)
	}
	return out, firstErr
}

// Join runs one member node: it registers with the coordinator at
// coord, receives the spec, forms the data mesh, runs the application,
// reports its result, and returns the coordinator's verdict. nodeID
// must be unique in 1..nodes-1; nodes, when non-zero, cross-checks the
// coordinator's spec.
func Join(coord string, nodeID, nodes int, opts Options) (Outcome, error) {
	o := opts.withDefaults()
	if nodeID < 1 {
		return Outcome{}, fmt.Errorf("cluster: join with node id %d (coordinator is node 0)", nodeID)
	}
	deadline := time.Now().Add(o.Timeout)
	c, err := dialControl(coord, deadline, o.Interrupt)
	if err != nil {
		return Outcome{}, err
	}
	defer c.Close()
	cc := newCtrlConn(c, o.Timeout)
	var sever closers
	stop := make(chan struct{})
	defer close(stop)
	watchInterrupt(o.Interrupt, stop, &sever)
	sever.add(c)

	dataLn, err := transport.ListenTCP(transport.NodeID(nodeID), o.DataAddr)
	if err != nil {
		return Outcome{}, err
	}
	sever.add(dataLn)
	fmt.Fprintf(o.Log, "node %d: joined %s, data on %s\n", nodeID, coord, dataLn.Addr())
	if err := cc.send(ctrlMsg{Type: "hello", Proto: protoVersion, Node: nodeID,
		Nodes: nodes, DataAddr: dataLn.Addr()}); err != nil {
		dataLn.Close()
		return Outcome{}, err
	}
	welcome, err := cc.recv("welcome")
	if err != nil {
		dataLn.Close()
		return Outcome{}, err
	}
	if welcome.Spec == nil {
		dataLn.Close()
		return Outcome{}, errors.New("cluster: welcome carried no spec")
	}
	spec := *welcome.Spec
	if nodeID >= spec.Nodes {
		dataLn.Close()
		return Outcome{}, fmt.Errorf("cluster: node id %d outside cluster of %d", nodeID, spec.Nodes)
	}

	conn, err := dataLn.Mesh(welcome.DataAddrs, time.Until(deadline))
	if err != nil {
		return Outcome{}, err
	}
	defer conn.Close()
	sever.add(conn)
	met := rt.NewMetrics()
	app, cl, err := buildApp(spec, met, o.Tracer)
	if err != nil {
		cc.send(ctrlMsg{Type: "result", Node: nodeID, OK: false, Err: err.Error()})
		return Outcome{}, err
	}
	if err := cc.send(ctrlMsg{Type: "ready", Node: nodeID}); err != nil {
		return Outcome{}, err
	}
	if _, err := cc.recv("go"); err != nil {
		return Outcome{}, err
	}
	fmt.Fprintf(o.Log, "node %d: running %s/%s on %d nodes x %d threads\n",
		nodeID, spec.App, spec.Size, spec.Nodes, spec.Threads)
	if o.Started != nil {
		o.Started(RunInfo{Node: nodeID, Spec: spec, Cluster: cl, Conn: conn, Metrics: met})
	}

	res, runErr := cl.RunNode(conn, app.Main)
	snap := met.Snapshot()
	result := ctrlMsg{Type: "result", Node: nodeID, OK: runErr == nil,
		ElapsedMS: res.Elapsed.Milliseconds(),
		Msgs:      res.Net.TotalMsgs(), Bytes: res.Net.TotalBytes()}
	if raw, merr := json.Marshal(snap); merr == nil {
		result.Metrics = raw
	}
	if runErr != nil {
		result.Err = runErr.Error()
	}
	if err := cc.send(result); err != nil {
		if runErr != nil {
			return Outcome{}, runErr
		}
		return Outcome{}, err
	}
	done, err := cc.recv("done")
	if err != nil {
		if runErr != nil {
			return Outcome{}, runErr
		}
		return Outcome{}, err
	}
	out := Outcome{Checksum: done.Checksum, Elapsed: res.Elapsed, Net: res.Net, Metrics: snap}
	if !done.OK {
		return out, fmt.Errorf("cluster: run failed: %s", done.Err)
	}
	if runErr != nil {
		return out, runErr
	}
	fmt.Fprintf(o.Log, "node %d: done in %v, global checksum %v\n", nodeID, res.Elapsed, out.Checksum)
	return out, nil
}

// dialControl dials the coordinator, retrying with backoff until the
// deadline — members may start before the coordinator's listener is up —
// or until interrupt fires.
func dialControl(coord string, deadline time.Time, interrupt <-chan struct{}) (net.Conn, error) {
	backoff := 20 * time.Millisecond
	for {
		d := net.Dialer{Deadline: deadline}
		c, err := d.Dial("tcp", coord)
		if err == nil {
			return c, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("cluster: dial coordinator %s: %w", coord, err)
		}
		select {
		case <-interrupt:
			return nil, fmt.Errorf("cluster: dial coordinator %s: interrupted (last error: %v)", coord, err)
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// ErrChecksum marks an oracle-comparison failure in cvm-node -oracle.
var ErrChecksum = errors.New("cluster: checksum mismatch")
