package harness

import (
	"reflect"
	"testing"

	"cvm"
	"cvm/internal/netsim"
	"cvm/internal/transport"
)

// TestTable2RowCoversAllClasses guards Table2Row against a silently
// missing column: for every netsim message class there must be a
// `<Class>Msgs` int64 field (and a matching `<Class>DelayMs` for the
// paper's non-overlapped delay columns). Adding a fourth message class
// to netsim without extending Table 2 fails here instead of shipping a
// table whose class columns no longer sum to the total.
func TestTable2RowCoversAllClasses(t *testing.T) {
	rt := reflect.TypeOf(Table2Row{})
	for _, c := range netsim.Classes() {
		msgs := c.String() + "Msgs"
		f, ok := rt.FieldByName(msgs)
		if !ok {
			t.Errorf("Table2Row has no %s field for class %v", msgs, c)
		} else if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Table2Row.%s is %v, want int64", msgs, f.Type)
		}
		delay := c.String() + "DelayMs"
		if _, ok := rt.FieldByName(delay); !ok {
			t.Errorf("Table2Row has no %s field for class %v", delay, c)
		}
	}
}

// TestClassesAreTable2Columns pins the class list itself: Table 2's
// three paper columns, in that order and nothing else, and a run
// registers exactly those with its metrics registry — the schema
// BASELINE_metrics.json was recorded with.
func TestClassesAreTable2Columns(t *testing.T) {
	var got []string
	for _, c := range transport.Classes() {
		got = append(got, c.String())
	}
	want := []string{"Barrier", "Lock", "Diff"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("transport.Classes() = %v, want %v", got, want)
	}
	cfg := cvm.DefaultConfig(2, 1)
	cfg.Metrics = cvm.NewMetrics()
	if _, err := cvm.New(cfg); err != nil {
		t.Fatal(err)
	}
	if reg := cfg.Metrics.Snapshot().MsgClasses; !reflect.DeepEqual(reg, want) {
		t.Errorf("a run registers message classes %v, want %v", reg, want)
	}
}
