package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 40, -5} {
		h.Observe(v)
	}
	if h.Count != 7 {
		t.Fatalf("Count = %d, want 7", h.Count)
	}
	if h.Min != 0 || h.Max != 1<<40 {
		t.Fatalf("Min/Max = %d/%d, want 0/%d", h.Min, h.Max, int64(1)<<40)
	}
	wantSum := int64(0 + 1 + 2 + 3 + 1000 + 1<<40 + 0) // -5 clamps to 0
	if h.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", h.Sum, wantSum)
	}
	// Bucket 0 holds exact zeros (two: the observed 0 and the clamped -5).
	if h.Buckets[0] != 2 {
		t.Fatalf("Buckets[0] = %d, want 2", h.Buckets[0])
	}
	// 2 and 3 share bucket 2 ([2,4)).
	if h.Buckets[2] != 2 {
		t.Fatalf("Buckets[2] = %d, want 2", h.Buckets[2])
	}
	var total int64
	for _, c := range h.Buckets {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket total %d != Count %d", total, h.Count)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zero mean and quantiles")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	if want := int64(50500); h.Mean() != want {
		t.Fatalf("Mean = %d, want %d", h.Mean(), want)
	}
	// Quantiles are bucket upper bounds, so only coarse assertions hold:
	// monotone, within [Min, Max], and p=1 is exactly Max.
	q50, q95, q100 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(1)
	if q50 > q95 || q95 > q100 {
		t.Fatalf("quantiles not monotone: %d %d %d", q50, q95, q100)
	}
	if q100 != h.Max {
		t.Fatalf("Quantile(1) = %d, want Max %d", q100, h.Max)
	}
	if q50 < h.Min || q50 > h.Max {
		t.Fatalf("Quantile(0.5) = %d outside [%d, %d]", q50, h.Min, h.Max)
	}
	// The p50 of 1000..100000 lies in the bucket of 50000.
	if q50 < 50000 || q50 > 65535 {
		t.Fatalf("Quantile(0.5) = %d, want in [50000, 65535]", q50)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for i := int64(0); i < 50; i++ {
		a.Observe(i * 7)
		whole.Observe(i * 7)
	}
	for i := int64(50); i < 90; i++ {
		b.Observe(i * 7)
		whole.Observe(i * 7)
	}
	a.merge(&b)
	if a != whole {
		t.Fatalf("merge mismatch:\n got %+v\nwant %+v", a, whole)
	}
	// Merging into an empty histogram copies (including Min).
	var empty Histogram
	empty.merge(&whole)
	if empty != whole {
		t.Fatal("merge into empty should copy")
	}
	// Merging an empty histogram is a no-op.
	before := whole
	whole.merge(&Histogram{})
	if whole != before {
		t.Fatal("merging empty should be a no-op")
	}
}

// TestWriteTextPrintsExactMin: the latency table's p50 is a bucket
// bound, so the uncontended §4.1 cost is read from its exact min column,
// the least sample over every node.
func TestWriteTextPrintsExactMin(t *testing.T) {
	snap := &Snapshot{Nodes: make([]NodeMetrics, 2)}
	snap.Nodes[0].Lock2Hop.Observe(1_058_000)
	snap.Nodes[1].Lock2Hop.Observe(930_134)
	snap.Nodes[1].Lock2Hop.Observe(994_000)
	var b bytes.Buffer
	if err := NewReport(Meta{}, snap, 5).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("  %-20s %9s %12s %12s %12s", "metric", "count", "mean", "min", "p50")
	want := fmt.Sprintf("  %-20s %9d %12s %12s %12s", "lock_2hop", 3, "994.0µs", "930.1µs", "1048.6µs")
	if !strings.Contains(b.String(), header) || !strings.Contains(b.String(), want) {
		t.Errorf("latency table lacks the row %q:\n%s", want, b.String())
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 900, 1 << 30, math.MaxInt64} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: 5 observations must not serialize 64 buckets.
	if bytes.Count(data, []byte(":")) > 12 {
		t.Fatalf("encoding not sparse: %s", data)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, h)
	}
	// Deterministic encoding.
	data2, _ := json.Marshal(h)
	if !bytes.Equal(data, data2) {
		t.Fatal("non-deterministic histogram encoding")
	}
	// Bad bucket keys error.
	if err := json.Unmarshal([]byte(`{"count":1,"buckets":{"x":1}}`), &back); err == nil {
		t.Fatal("expected error for non-numeric bucket key")
	}
	if err := json.Unmarshal([]byte(`{"count":1,"buckets":{"64":1}}`), &back); err == nil {
		t.Fatal("expected error for out-of-range bucket key")
	}
}

func TestTimelineAddSplitsAcrossBins(t *testing.T) {
	r := NewRegistry()
	r.SetInterval(100)
	r.Configure(2, []string{"a"})

	// A span covering [50, 250) splits 50/100/50 across bins 0-2.
	r.timelineAdd(0, 50, 250, timelineUser)
	bins := r.snap.Timeline[0]
	if len(bins) != 3 {
		t.Fatalf("len(bins) = %d, want 3", len(bins))
	}
	for i, want := range []int64{50, 100, 50} {
		if bins[i].UserNs != want {
			t.Errorf("bin %d UserNs = %d, want %d", i, bins[i].UserNs, want)
		}
	}

	// Spans before the epoch clamp; zero-length spans are dropped.
	r.Reset(1000)
	r.timelineAdd(0, 900, 1050, timelineFault)
	r.timelineAdd(0, 1050, 1050, timelineLock)
	bins = r.snap.Timeline[0]
	if len(bins) != 1 || bins[0].FaultNs != 50 || bins[0].LockNs != 0 {
		t.Fatalf("after epoch clamp: %+v", bins)
	}
	if bins[0].total() != 50 {
		t.Fatalf("total = %d, want 50", bins[0].total())
	}
}

func TestTimelineAddClips(t *testing.T) {
	r := NewRegistry()
	r.SetInterval(10)
	r.maxBins = 4
	r.Configure(1, nil)
	// Bins cover [0, 40); the rest of the span must be clipped, not
	// allocated.
	r.timelineAdd(0, 35, 95, timelineBarrier)
	bins := r.snap.Timeline[0]
	if len(bins) != 4 {
		t.Fatalf("len(bins) = %d, want 4 (capped)", len(bins))
	}
	if bins[3].BarrierNs != 5 {
		t.Fatalf("last bin BarrierNs = %d, want 5", bins[3].BarrierNs)
	}
	if got := int64(r.Snapshot().TimelineClippedNs); got != 55 {
		t.Fatalf("TimelineClippedNs = %d, want 55", got)
	}
}

func TestRegistryConfigureTwicePanics(t *testing.T) {
	r := NewRegistry()
	r.Configure(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Configure")
		}
	}()
	r.Configure(1, nil)
}

func TestSetIntervalValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "non-positive interval", func() { r.SetInterval(0) })
	r.SetInterval(sim.Millisecond)
	r.Configure(1, nil)
	mustPanic(t, "SetInterval after Configure", func() { r.SetInterval(sim.Millisecond) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestTopNDeterministic(t *testing.T) {
	m := map[int32]*WaitAttr{
		7: {WaitNs: 100, Count: 1},
		3: {WaitNs: 300, Count: 2},
		5: {WaitNs: 100, Count: 4},
		1: {WaitNs: 200, Count: 1},
	}
	got := topN(m, 3)
	wantIDs := []int32{3, 1, 5} // 100ns tie between 5 and 7 breaks to lower id
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, id := range wantIDs {
		if got[i].id != id {
			t.Fatalf("row %d id = %d, want %d (rows %+v)", i, got[i].id, id, got)
		}
	}
	for i := 0; i < 100; i++ {
		again := topN(m, 3)
		if !reflect.DeepEqual(got, again) {
			t.Fatal("topN order not deterministic")
		}
	}
}

func TestSnapshotMergeAndClone(t *testing.T) {
	a := registryWithData(1)
	b := registryWithData(3)

	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa.Clone()
	merged.Merge(sb)

	// Histograms add bucket-wise.
	if got, want := merged.Nodes[0].UserBurst.Count, sa.Nodes[0].UserBurst.Count+sb.Nodes[0].UserBurst.Count; got != want {
		t.Fatalf("merged UserBurst.Count = %d, want %d", got, want)
	}
	// Counters add.
	if got, want := int64(merged.TimelineClippedNs), int64(sa.TimelineClippedNs)+int64(sb.TimelineClippedNs); got != want {
		t.Fatalf("merged TimelineClippedNs = %d, want %d", got, want)
	}
	// Attribution maps merge per key.
	if got := merged.PageWait[9].Count; got != 2 {
		t.Fatalf("merged PageWait[9].Count = %d, want 2", got)
	}
	if got := merged.PageWait[9].WaitNs; got != int64(1+3)*1000 {
		t.Fatalf("merged PageWait[9].WaitNs = %d, want 4000", got)
	}
	// Class names are first-wins strings, not concatenations.
	if !reflect.DeepEqual(merged.MsgClasses, sa.MsgClasses) {
		t.Fatalf("merged MsgClasses = %v", merged.MsgClasses)
	}
	// Merge must not alias the source: mutating merged leaves sb intact.
	merged.PageWait[9].Count = 99
	if sb.PageWait[9].Count != 1 {
		t.Fatal("Merge aliased a source map value")
	}
	// Clone is deep.
	c := sa.Clone()
	c.Nodes[0].UserBurst.Observe(1)
	c.PageWait[9].WaitNs = 0
	if sa.Nodes[0].UserBurst.Count != 1 || sa.PageWait[9].WaitNs != 1000 {
		t.Fatal("Clone shares state with its source")
	}
}

// registryWithData builds a 2-node registry with one observation of
// each family, scaled by k.
func registryWithData(k int64) *Registry {
	r := NewRegistry()
	r.Configure(2, []string{"a", "b"})
	r.Slice(0, 0, sim.Time(k)*r.interval, 1)
	r.Emit(trace.Event{Kind: trace.KindLockAcquire, Node: 1, Sync: 4, Aux: 2, Dur: sim.Time(k * 100)})
	r.Emit(trace.Event{Kind: trace.KindMsgDeliver, Sync: 1, Dur: sim.Time(k * 7)})
	r.Emit(trace.Event{Kind: trace.KindThreadUnblock, Arg: int64(trace.ReasonFault), Page: 9, Dur: sim.Time(k * 1000)})
	r.clippedNs[0] += k
	return r
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	s := registryWithData(2).Snapshot()
	d1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := json.Marshal(s)
	if !bytes.Equal(d1, d2) {
		t.Fatal("non-deterministic snapshot encoding")
	}
	var back Snapshot
	if err := json.Unmarshal(d1, &back); err != nil {
		t.Fatal(err)
	}
	d3, _ := json.Marshal(&back)
	if !bytes.Equal(d1, d3) {
		t.Fatal("snapshot JSON round trip not stable")
	}
}
