package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/rt"
	"cvm/internal/transport"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{App: "sor", Size: "test", Nodes: 4, Threads: 2, Page: 4096}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"zero nodes":          func(s *Spec) { s.Nodes = 0 },
		"zero threads":        func(s *Spec) { s.Threads = 0 },
		"bad page":            func(s *Spec) { s.Page = 12 },
		"unknown app":         func(s *Spec) { s.App = "nosuch" },
		"unknown size":        func(s *Spec) { s.Size = "huge" },
		"unsupported threads": func(s *Spec) { s.App = "ocean"; s.Threads = 3 },
	} {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec %+v validated", name, s)
		}
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runCluster drives a full Coordinate/Join cluster in-process and
// returns the coordinator's outcome and every member's.
func runCluster(t *testing.T, spec Spec) (Outcome, []Outcome) {
	t.Helper()
	addr := freePort(t)
	opts := Options{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	var coord Outcome
	var coordErr error
	members := make([]Outcome, spec.Nodes)
	errs := make([]error, spec.Nodes)
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord, coordErr = Coordinate(addr, spec, opts)
	}()
	for id := 1; id < spec.Nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			members[id], errs[id] = Join(addr, id, spec.Nodes, opts)
		}(id)
	}
	wg.Wait()
	if coordErr != nil {
		t.Fatalf("coordinator: %v", coordErr)
	}
	for id := 1; id < spec.Nodes; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
	}
	return coord, members[1:]
}

// TestClusterMatchesSimulator boots a 4-process-equivalent cluster for
// two SPLASH applications — the lock-bound Water-Nsq and the
// barrier-bound SOR — and requires the TCP cluster's checksum to equal
// the deterministic simulator's exactly.
func TestClusterMatchesSimulator(t *testing.T) {
	for _, app := range []string{"sor", "waternsq"} {
		app := app
		t.Run(app, func(t *testing.T) {
			spec := Spec{App: app, Size: "test", Nodes: 4, Threads: 2, Page: 4096}
			coord, members := runCluster(t, spec)
			_, simSum, err := apps.RunConfig(app, apps.SizeTest,
				cvm.DefaultConfig(spec.Nodes, spec.Threads))
			if err != nil {
				t.Fatal(err)
			}
			if coord.Checksum != simSum {
				t.Fatalf("cluster checksum %v, simulator %v", coord.Checksum, simSum)
			}
			for i, m := range members {
				if m.Checksum != simSum {
					t.Errorf("node %d got checksum %v, want %v", i+1, m.Checksum, simSum)
				}
				if m.Net.TotalMsgs() == 0 {
					t.Errorf("node %d reports zero traffic", i+1)
				}
			}
		})
	}
}

// TestCoordinatorRejectsBadHello exercises the membership validation
// paths end to end: the faulty member gets the reason over the wire and
// the coordinator aborts rather than hangs.
func TestCoordinatorRejectsBadHello(t *testing.T) {
	for name, tc := range map[string]struct {
		nodeID, nodes int
		want          string
	}{
		"id out of range": {nodeID: 9, nodes: 0, want: "node id 9"},
		"nodes mismatch":  {nodeID: 1, nodes: 3, want: "expects 3 nodes"},
	} {
		t.Run(name, func(t *testing.T) {
			addr := freePort(t)
			opts := Options{Timeout: 10 * time.Second}
			spec := Spec{App: "sor", Size: "test", Nodes: 2, Threads: 1, Page: 4096}
			var wg sync.WaitGroup
			var coordErr, memberErr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, coordErr = Coordinate(addr, spec, opts)
			}()
			go func() {
				defer wg.Done()
				_, memberErr = Join(addr, tc.nodeID, tc.nodes, opts)
			}()
			wg.Wait()
			if coordErr == nil || !strings.Contains(coordErr.Error(), tc.want) {
				t.Errorf("coordinator error = %v, want %q", coordErr, tc.want)
			}
			if memberErr == nil || !strings.Contains(memberErr.Error(), tc.want) {
				t.Errorf("member error = %v, want %q", memberErr, tc.want)
			}
		})
	}
}

func TestJoinValidatesNodeID(t *testing.T) {
	if _, err := Join("127.0.0.1:1", 0, 2, Options{Timeout: time.Second}); err == nil ||
		!strings.Contains(err.Error(), "node id 0") {
		t.Errorf("Join with id 0 = %v, want node id error", err)
	}
}

// fakeMember joins a cluster as node id and follows the protocol up to
// (and including) the data mesh, then hands control to the test to
// deviate: the failure-path tests use it to die, stall, or corrupt the
// stream at a chosen step.
type fakeMember struct {
	t      *testing.T
	cc     *ctrlConn
	raw    net.Conn
	dataLn *transport.TCPListener
	conn   transport.Conn
	spec   Spec
}

func joinFake(t *testing.T, coord string, id int) *fakeMember {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	c, err := dialControl(coord, deadline, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := transport.ListenTCP(transport.NodeID(id), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc := newCtrlConn(c, 10*time.Second)
	if err := cc.send(ctrlMsg{Type: "hello", Proto: protoVersion, Node: id, DataAddr: dataLn.Addr()}); err != nil {
		t.Fatal(err)
	}
	welcome, err := cc.recv("welcome")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dataLn.Mesh(welcome.DataAddrs, time.Until(deadline))
	if err != nil {
		t.Fatal(err)
	}
	fm := &fakeMember{t: t, cc: cc, raw: c, dataLn: dataLn, conn: conn, spec: *welcome.Spec}
	t.Cleanup(fm.close)
	return fm
}

func (fm *fakeMember) close() {
	fm.raw.Close()
	fm.conn.Close()
	fm.dataLn.Close()
}

// runApp plays the member's part of the DSM run so the coordinator's
// own RunNode completes and the failure can be injected afterwards.
func (fm *fakeMember) runApp() {
	fm.t.Helper()
	app, cl, err := buildApp(fm.spec, rt.NewMetrics(), nil)
	if err != nil {
		fm.t.Fatal(err)
	}
	if _, err := cl.RunNode(fm.conn, app.Main); err != nil {
		fm.t.Fatal(err)
	}
}

func coordinateAsync(t *testing.T, addr string, spec Spec, timeout time.Duration) <-chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		_, err := Coordinate(addr, spec, Options{Timeout: timeout})
		errCh <- err
	}()
	return errCh
}

func wantCoordErr(t *testing.T, errCh <-chan error, wait time.Duration, fragments ...string) {
	t.Helper()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatalf("coordinator succeeded, want error mentioning %q", fragments)
		}
		for _, frag := range fragments {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("coordinator error %q does not mention %q", err, frag)
			}
		}
	case <-time.After(wait):
		t.Fatal("coordinator still blocked; failure path hangs instead of failing")
	}
}

// TestCoordinatorStepDeadline: a member that meshes but never sends
// ready must trip the coordinator's per-step deadline with the failing
// node named, not hang the cluster.
func TestCoordinatorStepDeadline(t *testing.T) {
	addr := freePort(t)
	spec := Spec{App: "sor", Size: "test", Nodes: 2, Threads: 1, Page: 4096}
	errCh := coordinateAsync(t, addr, spec, 2*time.Second)
	fm := joinFake(t, addr, 1)
	_ = fm // meshed, then silent: never sends ready
	wantCoordErr(t, errCh, 15*time.Second, "node 1", "ready")
}

// TestCoordinatorMalformedResult: a member that runs the app but then
// corrupts its result line must fail the run with the node named.
func TestCoordinatorMalformedResult(t *testing.T) {
	addr := freePort(t)
	spec := Spec{App: "sor", Size: "test", Nodes: 2, Threads: 1, Page: 4096}
	errCh := coordinateAsync(t, addr, spec, 10*time.Second)
	fm := joinFake(t, addr, 1)
	if err := fm.cc.send(ctrlMsg{Type: "ready", Node: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.cc.recv("go"); err != nil {
		t.Fatal(err)
	}
	fm.runApp()
	if _, err := fm.raw.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	wantCoordErr(t, errCh, 30*time.Second, "node 1")
}

// TestCoordinatorResultWithoutMetrics: a proto-2 result must carry the
// member's metrics snapshot; its absence is attributed, not ignored.
func TestCoordinatorResultWithoutMetrics(t *testing.T) {
	addr := freePort(t)
	spec := Spec{App: "sor", Size: "test", Nodes: 2, Threads: 1, Page: 4096}
	errCh := coordinateAsync(t, addr, spec, 10*time.Second)
	fm := joinFake(t, addr, 1)
	if err := fm.cc.send(ctrlMsg{Type: "ready", Node: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.cc.recv("go"); err != nil {
		t.Fatal(err)
	}
	fm.runApp()
	if err := fm.cc.send(ctrlMsg{Type: "result", Node: 1, OK: true}); err != nil {
		t.Fatal(err)
	}
	wantCoordErr(t, errCh, 30*time.Second, "node 1", "no metrics")
}

// joinedLog closes joined once the coordinator logs that node 1 joined.
type joinedLog struct {
	once   sync.Once
	joined chan struct{}
}

func (l *joinedLog) Write(p []byte) (int, error) {
	if strings.Contains(string(p), "node 1 joined") {
		l.once.Do(func() { close(l.joined) })
	}
	return len(p), nil
}

// TestInterruptedCoordinatorTellsMembers: a member that was not itself
// interrupted — another process, in a real cluster — must learn why the
// coordinator went away, not fail on the closed connection.
func TestInterruptedCoordinatorTellsMembers(t *testing.T) {
	addr := freePort(t)
	spec := Spec{App: "sor", Size: "test", Nodes: 3, Threads: 1, Page: 4096}
	log := &joinedLog{joined: make(chan struct{})}
	interrupt := make(chan struct{})
	coordErr := make(chan error, 1)
	go func() {
		_, err := Coordinate(addr, spec, Options{Timeout: 30 * time.Second, Log: log, Interrupt: interrupt})
		coordErr <- err
	}()
	memberErr := make(chan error, 1)
	go func() {
		_, err := Join(addr, 1, spec.Nodes, Options{Timeout: 30 * time.Second})
		memberErr <- err
	}()
	select {
	case <-log.joined: // node 2 never comes: both sides wait in the handshake
	case <-time.After(15 * time.Second):
		t.Fatal("node 1 never joined")
	}
	close(interrupt)
	for who, ch := range map[string]chan error{"coordinator": coordErr, "member": memberErr} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s succeeded after the interrupt", who)
			} else if who == "member" && !strings.Contains(err.Error(), "coordinator failed: interrupted") {
				t.Errorf("member error %q does not say the coordinator was interrupted", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s still blocked after the interrupt", who)
		}
	}
}

// TestCoordinatorMemberDiesBeforeGo: a member that vanishes between
// ready and go must surface as an attributed failure — its death tears
// down the data mesh, so the error names the dead peer one way or
// another.
func TestCoordinatorMemberDiesBeforeGo(t *testing.T) {
	addr := freePort(t)
	spec := Spec{App: "sor", Size: "test", Nodes: 2, Threads: 1, Page: 4096}
	errCh := coordinateAsync(t, addr, spec, 5*time.Second)
	fm := joinFake(t, addr, 1)
	if err := fm.cc.send(ctrlMsg{Type: "ready", Node: 1}); err != nil {
		t.Fatal(err)
	}
	fm.close()
	wantCoordErr(t, errCh, 30*time.Second, "node 1")
}
