package harness

import (
	"math"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
	"cvm/internal/sim"
)

// TestVariantsReproduceTheBaseChecksum is why every study validates at
// the default checksum tolerance: a variant moves timing only — the
// protocol, the coherence mechanism, the switch cost, the wire, the run
// queue — and the shared accumulators sum on qfix's fixed-point grid, so
// the order of lock grants and barrier wake-ups cannot reach the
// result. Each app at 8×{2,4} must give the plain run's checksum bit for
// bit under SW and every ablation's extreme points.
func TestVariantsReproduceTheBaseChecksum(t *testing.T) {
	wire := func(mul, div sim.Time) func(*cvm.Config) {
		return func(cfg *cvm.Config) {
			cfg.Net.WireLatency = cfg.Net.WireLatency * mul / div
			cfg.Net.SendOverhead = cfg.Net.SendOverhead * mul / div
			cfg.Net.RecvOverhead = cfg.Net.RecvOverhead * mul / div
		}
	}
	variants := []struct {
		label string
		mut   func(*cvm.Config)
	}{
		{"under SW", func(cfg *cvm.Config) { cfg.Protocol = core.ProtocolSW }},
		{"switch-cost=1ms", func(cfg *cvm.Config) { cfg.SwitchCost = sim.Millisecond }},
		{"wire-latency=0.5x", wire(1, 2)},
		{"wire-latency=4x", wire(4, 1)},
		{"LIFO", func(cfg *cvm.Config) { cfg.LIFOScheduler = true }},
	}
	grid, err := GridCells(AppOrder, apps.SizeTest, []Shape{{8, 2}, {8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	stride := 1 + len(variants)
	cells := make([]Cell, 0, stride*len(grid))
	for _, c := range grid {
		cells = append(cells, c)
		for _, v := range variants {
			vc := c
			vc.Label, vc.Mut = v.label, v.mut
			cells = append(cells, vc)
		}
	}
	out, err := RunCells(cells, apps.SizeTest, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(cells); i += stride {
		base := out[i].Checksum
		for j := 1; j < stride; j++ {
			if got := out[i+j].Checksum; math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("%v: checksum %v, plain run %v", cells[i+j], got, base)
			}
		}
	}
}
