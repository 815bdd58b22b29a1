package metrics_test

import (
	"reflect"
	"testing"

	"cvm"
	"cvm/internal/metrics"
	"cvm/internal/rt"
	"cvm/internal/trace"
)

const replayNodes, replayThreads = 3, 2

// replayProgram takes every path an event-derived metric observes: its
// two threads a node contend for lock 0 (a local-queue wait) while the
// nodes pass its token on (remote acquires, forwarded by the manager
// once the token has left it), every round writes a page per node
// (twins, diffs) and reads the next node's (remote faults), and global
// barriers, local barriers and a reduction separate the rounds. It never
// calls MarkSteadyState: one stream covers the whole run.
func replayProgram(c cvm.Allocator) func(cvm.Worker) {
	page := c.PageSize()
	data := c.MustAlloc("pages", replayNodes*page)
	ctr := c.MustAlloc("ctr", 8)
	return func(w cvm.Worker) {
		own := data + cvm.Addr(w.NodeID()*page)
		next := data + cvm.Addr((w.NodeID()+1)%w.Nodes()*page)
		for r := 0; r < 3; r++ {
			w.WriteF64(own+cvm.Addr(8*w.LocalID()), float64(r))
			w.LocalBarrier(r)
			w.Barrier(2 * r)
			_ = w.ReadF64(next)
			w.Lock(0)
			w.AddF64(ctr, 1)
			w.Unlock(0)
			w.ReduceF64(r, 1, cvm.ReduceSum)
			w.Barrier(2*r + 1)
		}
	}
}

// replayed feeds the recorded events, in the recorder's (T, Seq) order,
// to a fresh registry configured like the live one.
func replayed(live *metrics.Snapshot, rec *trace.Recorder) *metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Configure(len(live.Nodes), live.MsgClasses)
	for _, e := range rec.Events() {
		reg.Emit(e)
	}
	return reg.Snapshot()
}

// withoutSchedulerHooks zeroes what the scheduler hooks, not events,
// observe: the Figure-1 decomposition and the timeline.
func withoutSchedulerHooks(s *metrics.Snapshot) *metrics.Snapshot {
	for i := range s.Nodes {
		n := &s.Nodes[i]
		n.UserBurst, n.FaultIdle, n.LockIdle, n.BarrierIdle, n.RunQueue =
			metrics.Histogram{}, metrics.Histogram{}, metrics.Histogram{}, metrics.Histogram{}, metrics.Histogram{}
	}
	s.Timeline, s.TimelineClippedNs = nil, 0
	return s
}

// TestMetricsAreAFunctionOfTheTrace holds the registry to the event
// stream: replaying a run's recorded events into a fresh registry must
// give the live registry's snapshot in every event-derived field, on
// both backends. A metric observed anywhere but from an event fails it.
func TestMetricsAreAFunctionOfTheTrace(t *testing.T) {
	sim := func(mut func(*cvm.Config)) func(*testing.T) (*metrics.Snapshot, *trace.Recorder) {
		return func(t *testing.T) (*metrics.Snapshot, *trace.Recorder) {
			cfg := cvm.DefaultConfig(replayNodes, replayThreads)
			rec := trace.NewRecorder(replayNodes, replayThreads, 0)
			cfg.Tracer, cfg.Metrics = rec, cvm.NewMetrics()
			mut(&cfg)
			cl, err := cvm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(replayProgram(cl)); err != nil {
				t.Fatal(err)
			}
			return cfg.Metrics.Snapshot(), rec
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T) (*metrics.Snapshot, *trace.Recorder)
	}{
		{"sequential", sim(func(*cvm.Config) {})},
		{"engine-workers 2", sim(func(cfg *cvm.Config) { cfg.EngineWorkers = 2 })},
		{"faults", sim(func(cfg *cvm.Config) {
			fp, err := cvm.ParseFaults("drop=0.05,dup=0.02", 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fp
		})},
		{"loopback", func(t *testing.T) (*metrics.Snapshot, *trace.Recorder) {
			cfg := rt.DefaultConfig(replayNodes, replayThreads)
			rec := trace.NewRecorder(replayNodes, replayThreads, 0)
			met := rt.NewMetrics()
			cfg.Tracer, cfg.Metrics = rec, met
			cl, err := rt.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.RunLoopback(replayProgram(cl)); err != nil {
				t.Fatal(err)
			}
			return met.Snapshot(), rec
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, rec := tc.run(t)
			var sum metrics.NodeMetrics
			for _, n := range live.Nodes {
				for _, h := range []struct{ dst, src *metrics.Histogram }{
					{&sum.FaultService, &n.FaultService}, {&sum.FaultThreadWait, &n.FaultThreadWait},
					{&sum.LockLocalWait, &n.LockLocalWait}, {&sum.Lock2Hop, &n.Lock2Hop},
					{&sum.BarrierStall, &n.BarrierStall}, {&sum.LocalBarrierStall, &n.LocalBarrierStall},
					{&sum.DiffBytes, &n.DiffBytes},
				} {
					h.dst.Count += h.src.Count
				}
			}
			for name, n := range map[string]int64{
				"fault_service": sum.FaultService.Count, "fault_thread_wait": sum.FaultThreadWait.Count,
				"lock_local_wait": sum.LockLocalWait.Count, "lock_2hop": sum.Lock2Hop.Count,
				"barrier_stall": sum.BarrierStall.Count, "local_barrier_stall": sum.LocalBarrierStall.Count,
				"diff_bytes": sum.DiffBytes.Count, "reductions": int64(live.Reductions),
				"page_wait": int64(len(live.PageWait)), "lock_wait": int64(len(live.LockWait)),
			} {
				if n == 0 {
					t.Errorf("the program observed no %s: the comparison below would not cover it", name)
				}
			}
			if tc.name == "faults" && (live.NetDropped == 0 || live.Retransmits == 0) {
				t.Errorf("no drops (%d) or retransmits (%d) under the fault plan", live.NetDropped, live.Retransmits)
			}
			got, want := withoutSchedulerHooks(replayed(live, rec)), withoutSchedulerHooks(live)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replaying %d events gives another snapshot than the live registry's:\nreplay %+v\n  live %+v",
					rec.Len(), got, want)
			}
		})
	}
}
