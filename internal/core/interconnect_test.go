package core

import (
	"errors"
	"strings"
	"testing"

	"cvm/internal/sim"
	"cvm/internal/transport"
)

// recordingInterconnect wraps another Interconnect and counts the
// traffic passing through the seam, proving the protocol engine sends
// exclusively through the installed backend.
type recordingInterconnect struct {
	inner     Interconnect
	taskSends int
	hdlrSends int
	bytes     int64
	classes   [transport.NumClasses]int
}

func (r *recordingInterconnect) Name() string              { return "recording+" + r.inner.Name() }
func (r *recordingInterconnect) PeerAddr(to NodeID) string { return r.inner.PeerAddr(to) }

func (r *recordingInterconnect) SendFromTask(t *sim.Task, from, to NodeID, class MsgClass, bytes int, deliver func()) {
	r.taskSends++
	r.bytes += int64(bytes)
	r.classes[class]++
	r.inner.SendFromTask(t, from, to, class, bytes, deliver)
}

func (r *recordingInterconnect) SendFromHandler(from, to NodeID, class MsgClass, bytes int, deliver func()) {
	r.hdlrSends++
	r.bytes += int64(bytes)
	r.classes[class]++
	r.inner.SendFromHandler(from, to, class, bytes, deliver)
}

// interconnectWorkload exercises every message class: barriers, lock
// transfers, and remote data faults.
func interconnectWorkload(addr Addr) func(*Thread) {
	return func(w *Thread) {
		gid := w.GlobalID()
		w.Barrier(0)
		w.Lock(1)
		w.WriteF64(addr, w.ReadF64(addr)+float64(gid+1))
		w.Unlock(1)
		w.Barrier(1)
	}
}

func TestSetInterconnectRoutesAllTraffic(t *testing.T) {
	s, err := NewSystem(DefaultConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := s.Alloc("x", 8)
	rec := &recordingInterconnect{inner: s.Network()}
	if err := s.SetInterconnect(rec); err != nil {
		t.Fatal(err)
	}
	runApp(t, s, interconnectWorkload(addr))

	if rec.taskSends == 0 || rec.hdlrSends == 0 {
		t.Fatalf("seam bypassed: taskSends=%d hdlrSends=%d", rec.taskSends, rec.hdlrSends)
	}
	for _, c := range transport.Classes() {
		if rec.classes[c] == 0 {
			t.Errorf("no %v traffic crossed the interconnect seam", c)
		}
	}
	// Everything the wrapper saw reached the inner simulator: the seam
	// is the only path, so the counts must reconcile exactly.
	st := s.Network().Stats()
	if got, want := int64(rec.taskSends+rec.hdlrSends), st.TotalMsgs(); got != want {
		t.Errorf("wrapper saw %d messages, netsim accounted %d", got, want)
	}
	if got, want := rec.bytes, st.TotalBytes(); got != want {
		t.Errorf("wrapper saw %d bytes, netsim accounted %d", got, want)
	}
}

// TestInterconnectIdenticalThroughWrapper proves the seam is
// transparent: a pass-through wrapper must not change a single
// statistic of the run.
func TestInterconnectIdenticalThroughWrapper(t *testing.T) {
	run := func(wrap bool) RunStats {
		s, err := NewSystem(DefaultConfig(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("x", 8)
		if wrap {
			if err := s.SetInterconnect(&recordingInterconnect{inner: s.Network()}); err != nil {
				t.Fatal(err)
			}
		}
		runApp(t, s, interconnectWorkload(addr))
		return s.Stats()
	}
	direct, wrapped := run(false), run(true)
	if direct.Wall != wrapped.Wall {
		t.Errorf("wall time changed through wrapper: %v vs %v", direct.Wall, wrapped.Wall)
	}
	if !direct.Net.Equal(wrapped.Net) {
		t.Errorf("traffic changed through wrapper: %+v vs %+v", direct.Net, wrapped.Net)
	}
}

func TestSetInterconnectValidation(t *testing.T) {
	s, err := NewSystem(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetInterconnect(nil); err == nil {
		t.Error("SetInterconnect(nil) succeeded, want error")
	}
	if err := s.Start(func(w *Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInterconnect(s.Network()); err == nil {
		t.Error("SetInterconnect after Start succeeded, want error")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTransportFailureNamesBackend drives a dead network through the
// whole path, on both engines: every attempt drops, the network gives up
// after the retry budget, and Run returns an error that wraps
// ErrTransport and names the backend, the peer, the class and the
// attempts — and does not hang.
func TestTransportFailureNamesBackend(t *testing.T) {
	fp, err := ParseFaultPlan("drop=1,retries=3", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		cfg := DefaultConfig(2, 1)
		cfg.Faults, cfg.EngineWorkers = fp, workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(func(w *Thread) { w.Barrier(0) }); err != nil {
			t.Fatal(err)
		}
		err = s.Run()
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("engine workers %d: Run() = %v, want ErrTransport", workers, err)
		}
		// Node 1's barrier arrival is the first message, and the only
		// one: node 0 waits for it before it sends anything.
		for _, want := range []string{"netsim", "node 0", "Barrier", "4 attempts"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("engine workers %d: failure %q missing %q", workers, err, want)
			}
		}
	}
}
