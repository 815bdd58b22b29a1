package apps

import (
	"reflect"
	"testing"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
)

// TestRunAheadCutsDispatches checks the sequential engine's run-ahead
// without a timer: ocean 8×4 test must dispatch at least 3× fewer slices
// at the default bound (the interconnect's lookahead) than at bound 0,
// and end with the same statistics.
func TestRunAheadCutsDispatches(t *testing.T) {
	run := func(bound sim.Time) (int, cvm.Stats) {
		defer core.SetRunAhead(bound)()
		cluster, err := cvm.New(cvm.DefaultConfig(8, 4))
		if err != nil {
			t.Fatal(err)
		}
		var st cvm.Stats
		if _, err := Exec("ocean", SizeTest, 4, cluster, func(main func(cvm.Worker)) (err error) {
			st, err = cluster.Run(main)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return cluster.System().Engine().Dispatches(), st
	}
	strict, strictStats := run(0)
	ahead, aheadStats := run(-1)
	t.Logf("dispatches: %d at bound 0, %d at the lookahead", strict, ahead)
	if !reflect.DeepEqual(strictStats, aheadStats) {
		t.Errorf("statistics differ between bounds:\n%+v\n%+v", strictStats.Total, aheadStats.Total)
	}
	if 3*ahead > strict {
		t.Errorf("%d dispatches at the lookahead, %d at bound 0: want at least 3× fewer", ahead, strict)
	}
}
