package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRegistryFieldsReachReportAndMerge is the drift guard for the
// reflection-driven consumers (in the style of table2_guard_test.go):
// every exported field of NodeMetrics, NetMetrics, and Snapshot must be
// of a kind the merge walker handles, carry a json tag, survive
// Snapshot.Merge without being dropped, and — for histograms — reach
// the report walkers and the JSON encoding. Adding a metric
// field automatically satisfies all of this; this test fails if a field
// of an unmergeable type or without a json name sneaks in.
func TestRegistryFieldsReachReportAndMerge(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(NodeMetrics{}),
		reflect.TypeOf(NetMetrics{}),
		reflect.TypeOf(Snapshot{}),
		reflect.TypeOf(WaitAttr{}),
		reflect.TypeOf(TimelineBin{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s: metric fields must be exported for reflection walkers", typ.Name(), f.Name)
				continue
			}
			if jsonName(f) == f.Name {
				t.Errorf("%s.%s: missing json tag (report keys must be stable)", typ.Name(), f.Name)
			}
			if !mergeable(f.Type) {
				t.Errorf("%s.%s: type %v is not handled by mergeValue", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

// mergeable mirrors mergeValue's type coverage.
func mergeable(t reflect.Type) bool {
	switch t {
	case histType, counterType, gaugeType:
		return true
	}
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !mergeable(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array, reflect.Pointer:
		return mergeable(t.Elem())
	case reflect.Map:
		return t.Key().Kind() == reflect.Int32 && mergeable(t.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.String, reflect.Bool:
		return true
	}
	return false
}

// TestNewHistogramReachesConsumers proves the guard's promise end to
// end on the real structs: every NodeMetrics histogram observed once is
// visible in the EachHistogram walk, the JSON report, the CSV, and
// survives Merge. If someone adds a field and one consumer misses it,
// this fails without naming any field.
func TestNewHistogramReachesConsumers(t *testing.T) {
	r := NewRegistry()
	r.Configure(1, []string{"x"})
	n := &r.snap.Nodes[0]

	// Observe a distinct value into every histogram field via reflection,
	// as a future field's author would via normal code.
	var names []string
	forEachHistField(n, func(name string, h *Histogram) {
		h.Observe(int64(1000 + len(names)))
		names = append(names, name)
	})
	if len(names) != reflect.TypeOf(NodeMetrics{}).NumField() {
		t.Fatalf("forEachHistField visited %d fields, NodeMetrics has %d — non-histogram metric field?",
			len(names), reflect.TypeOf(NodeMetrics{}).NumField())
	}

	snap := r.Snapshot()

	// 1. The walker sees every field with count 1.
	seen := map[string]int64{}
	snap.EachHistogram(func(scope, name string, h *Histogram) {
		if scope == "node0" {
			seen[name] = h.Count
		}
	})
	for _, name := range names {
		if seen[name] != 1 {
			t.Errorf("EachHistogram missed %q (count %d)", name, seen[name])
		}
	}

	// 2. The JSON report mentions every field by its json key.
	rep := NewReport(Meta{App: "guard"}, snap, 5)
	var jsonBuf strings.Builder
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.Contains(jsonBuf.String(), `"`+name+`"`) {
			t.Errorf("JSON report is missing %q", name)
		}
	}
	// And decodes back to an identical snapshot.
	back, err := ReadReport([]byte(jsonBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Snapshot, snap) {
		t.Error("report JSON round trip lost snapshot state")
	}

	// 3. The CSV has one row per field.
	var csvBuf strings.Builder
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.Contains(csvBuf.String(), "node0,"+name+",") {
			t.Errorf("CSV is missing %q", name)
		}
	}

	// 4. Merge doubles every count — no field silently dropped.
	merged := snap.Clone()
	merged.Merge(snap)
	merged.EachHistogram(func(scope, name string, h *Histogram) {
		if scope == "node0" && h.Count != 2 {
			t.Errorf("Merge dropped %q (count %d, want 2)", name, h.Count)
		}
	})
}

// TestSnapshotJSONKeysComplete pins the Snapshot wire schema: every
// exported field must appear in the encoding (no omitted metric can hide
// from the metrics gate's byte diff against BASELINE_metrics.json).
func TestSnapshotJSONKeysComplete(t *testing.T) {
	s := registryWithData(1).Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Snapshot{})
	for i := 0; i < typ.NumField(); i++ {
		key := jsonName(typ.Field(i))
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("snapshot JSON is missing key %q", key)
		}
	}
}
