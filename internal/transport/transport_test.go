package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// mesh builds an N-node mesh of the named backend, with cleanup.
func mesh(t *testing.T, backend string, nodes int) []Conn {
	t.Helper()
	switch backend {
	case "loopback":
		conns := NewLoopback(nodes)
		t.Cleanup(func() {
			for _, c := range conns {
				c.Close()
			}
		})
		return conns
	case "tcp":
		lns := make([]*TCPListener, nodes)
		addrs := make([]string, nodes)
		for i := range lns {
			ln, err := ListenTCP(NodeID(i), "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen %d: %v", i, err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr()
		}
		conns := make([]Conn, nodes)
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for i := range lns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				conns[i], errs[i] = lns[i].Mesh(addrs, 10*time.Second)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("mesh %d: %v", i, err)
			}
		}
		t.Cleanup(func() {
			for _, c := range conns {
				c.Close()
			}
		})
		return conns
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

func backends() []string { return []string{"loopback", "tcp"} }

func TestConnIdentity(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 3)
			for i, c := range conns {
				if c.Self() != NodeID(i) {
					t.Errorf("conn %d: Self() = %d", i, c.Self())
				}
				if c.Nodes() != 3 {
					t.Errorf("conn %d: Nodes() = %d, want 3", i, c.Nodes())
				}
				if c.Backend() != b {
					t.Errorf("conn %d: Backend() = %q, want %q", i, c.Backend(), b)
				}
				if c.PeerAddr((NodeID(i)+1)%3) == "" {
					t.Errorf("conn %d: empty PeerAddr", i)
				}
			}
		})
	}
}

func TestConnPingPong(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			payload := []byte("ping-payload")
			if err := conns[0].Send(Message{To: 1, Class: ClassLock, Type: 7, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			m, err := conns[1].Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.From != 0 || m.To != 1 || m.Class != ClassLock || m.Type != 7 || string(m.Payload) != "ping-payload" {
				t.Fatalf("received %+v", m)
			}
			if err := conns[1].Send(Message{To: 0, Class: ClassDiff, Type: 9, Payload: nil}); err != nil {
				t.Fatal(err)
			}
			m, err = conns[0].Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.From != 1 || m.Class != ClassDiff || m.Type != 9 || len(m.Payload) != 0 {
				t.Fatalf("received %+v", m)
			}
		})
	}
}

func TestConnPairFIFO(t *testing.T) {
	const msgs = 200
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			go func() {
				for k := 0; k < msgs; k++ {
					conns[0].Send(Message{To: 1, Class: ClassDiff, Type: 1,
						Payload: []byte{byte(k), byte(k >> 8)}})
				}
			}()
			for k := 0; k < msgs; k++ {
				m, err := conns[1].Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got := int(m.Payload[0]) | int(m.Payload[1])<<8; got != k {
					t.Fatalf("message %d arrived when %d expected: same-pair FIFO broken", got, k)
				}
			}
		})
	}
}

// TestConnAllToAll floods a 4-node mesh from every node to every peer
// concurrently; run under -race this is the backend's thread-safety
// proof. Per-pair FIFO must hold under the contention.
func TestConnAllToAll(t *testing.T) {
	const nodes, msgs = 4, 100
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, nodes)
			var wg sync.WaitGroup
			for i := range conns {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < msgs; k++ {
						for j := range conns {
							if j == i {
								continue
							}
							err := conns[i].Send(Message{To: NodeID(j), Class: ClassBarrier,
								Type: 2, Payload: []byte{byte(k)}})
							if err != nil {
								t.Errorf("send %d->%d: %v", i, j, err)
								return
							}
						}
					}
				}(i)
			}
			for i := range conns {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					next := make([]int, nodes)
					for n := 0; n < (nodes-1)*msgs; n++ {
						m, err := conns[i].Recv()
						if err != nil {
							t.Errorf("recv at %d: %v", i, err)
							return
						}
						if int(m.Payload[0]) != next[m.From] {
							t.Errorf("at %d from %d: got seq %d, want %d",
								i, m.From, m.Payload[0], next[m.From])
							return
						}
						next[m.From]++
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestConnStats(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			conns[0].Send(Message{To: 1, Class: ClassLock, Payload: make([]byte, 10)})
			conns[0].Send(Message{To: 1, Class: ClassDiff, Payload: make([]byte, 100)})
			conns[0].Send(Message{To: 1, Class: ClassDiff, Payload: make([]byte, 50)})
			st := conns[0].Stats()
			if st.Msgs[ClassLock] != 1 || st.Msgs[ClassDiff] != 2 || st.Msgs[ClassBarrier] != 0 {
				t.Errorf("msgs = %v", st.Msgs)
			}
			if st.Bytes[ClassLock] != 10 || st.Bytes[ClassDiff] != 150 {
				t.Errorf("bytes = %v", st.Bytes)
			}
			if st.TotalMsgs() != 3 || st.TotalBytes() != 160 {
				t.Errorf("totals = %d msgs %d bytes", st.TotalMsgs(), st.TotalBytes())
			}
		})
	}
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			done := make(chan error, 1)
			go func() {
				_, err := conns[0].Recv()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			conns[0].Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Recv after close = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock on Close")
			}
		})
	}
}

// TestConnErrorsNameBackendAndPeer is the attribution satellite: a
// transport failure must identify which backend and which peer address
// failed, so multi-process failures are diagnosable from the text.
func TestConnErrorsNameBackendAndPeer(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			conns[1].Close()
			if b == "loopback" {
				// Loopback reports closure at the sender.
				err := conns[0].Send(Message{To: 1, Class: ClassLock})
				if err == nil {
					t.Fatal("send to closed peer succeeded")
				}
				if !strings.Contains(err.Error(), "loopback") ||
					!strings.Contains(err.Error(), "node 1") {
					t.Errorf("error %q does not name backend and peer", err)
				}
				return
			}
			// TCP reports the dead peer at the reader; the writer may
			// buffer. Recv must surface an error naming the peer address.
			// Node 1 closed without saying goodbye: a dead peer.
			deadline := time.After(5 * time.Second)
			errC := make(chan error, 1)
			go func() {
				for {
					if _, err := conns[0].Recv(); err != nil {
						errC <- err
						return
					}
				}
			}()
			select {
			case err := <-errC:
				if !strings.Contains(err.Error(), "tcp") ||
					!strings.Contains(err.Error(), conns[0].PeerAddr(1)) {
					t.Errorf("error %q does not name backend and peer address", err)
				}
			case <-deadline:
				t.Fatal("no error surfaced after peer close")
			}
		})
	}
}

// TestReadLoopGoodbye drives one read pump over canned streams: a
// stream that ends in a goodbye frame retires its peer quietly (the
// message ahead of it is delivered, then Recv reports a clean
// ErrClosed, the only peer being gone), while the same stream ending
// in a bare EOF is a failure attributed to the peer.
func TestReadLoopGoodbye(t *testing.T) {
	msg := frame(1, uint8(ClassDiff), 7, []byte("payload"))
	for _, tc := range []struct {
		name     string
		stream   []byte
		delivers bool   // the stream carries msg ahead of its end
		wantErr  string // substring of the Recv error after that
		attrib   bool   // the error names peer 1 and its address
	}{
		{"goodbye then EOF", append(append([]byte(nil), msg...), frame(1, goodbyeClass, 0, nil)...),
			true, "every peer said goodbye", false},
		{"bare EOF", msg, true, "peer closed after", true},
		{"goodbye from the wrong peer", frame(0, goodbyeClass, 0, nil), false, "bad frame", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &tcpConn{self: 0, addrs: []string{"a:0", "b:1"}}
			c.cond = sync.NewCond(&c.mu)
			c.stats.Peers = make([]PeerStats, 2)
			c.rwg.Add(1)
			c.readLoop(1, bytes.NewReader(tc.stream))
			if tc.delivers {
				m, err := c.Recv()
				if err != nil || m.From != 1 || m.Type != 7 || string(m.Payload) != "payload" {
					t.Fatalf("Recv = %+v, %v; want the message ahead of the stream's end", m, err)
				}
			}
			_, err := c.Recv()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Recv error = %v, want one containing %q", err, tc.wantErr)
			}
			if named := strings.Contains(err.Error(), "<- node 1 (b:1)"); named != tc.attrib {
				t.Errorf("error %q: names the peer = %v, want %v", err, named, tc.attrib)
			}
			if !tc.attrib && !errors.Is(err, ErrClosed) {
				t.Errorf("clean close error %v is not ErrClosed", err)
			}
		})
	}
}

// TestTCPGoodbyeThenClose is the teardown race in miniature: node 1
// finishes first, says goodbye and closes while node 2 still waits for
// a message on node 0's stream. Node 2 must see neither an error nor a
// closed inbox until that message is in, and a clean ErrClosed only
// once node 0 has left the same way.
func TestTCPGoodbyeThenClose(t *testing.T) {
	conns := mesh(t, "tcp", 3)
	conns[1].Goodbye()
	conns[1].Close()
	// Let node 1's goodbye and FIN land at node 2 first.
	time.Sleep(20 * time.Millisecond)
	if err := conns[0].Send(Message{To: 2, Class: ClassBarrier, Type: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := conns[2].Recv()
	if err != nil || m.From != 0 || m.Type != 9 {
		t.Fatalf("Recv after a peer's orderly close = %+v, %v; want node 0's message", m, err)
	}
	conns[0].Goodbye()
	conns[0].Close()
	if _, err := conns[2].Recv(); !errors.Is(err, ErrClosed) || strings.Contains(err.Error(), "peer closed") {
		t.Fatalf("Recv after every peer closed = %v, want a clean ErrClosed", err)
	}
}

func TestConnRejectsInvalidPeer(t *testing.T) {
	for _, b := range backends() {
		t.Run(b, func(t *testing.T) {
			conns := mesh(t, b, 2)
			for _, to := range []NodeID{-1, 2, 0} { // 0 == self
				if err := conns[0].Send(Message{To: to}); err == nil {
					t.Errorf("send to %d succeeded, want error", to)
				}
			}
		})
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{ClassBarrier: "Barrier", ClassLock: "Lock", ClassDiff: "Diff"}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if s := Class(200).String(); s != fmt.Sprintf("Class(%d)", 200) {
		t.Errorf("out-of-range class = %q", s)
	}
}
