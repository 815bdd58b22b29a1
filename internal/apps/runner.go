package apps

import (
	"fmt"

	"cvm"
)

// Run builds the named application at the given scale, executes it on a
// fresh cluster with the paper's default calibration, validates the
// result against the sequential reference, and returns the run statistics.
func Run(name string, size Size, nodes, threadsPerNode int) (cvm.Stats, error) {
	return RunConfig(name, size, cvm.DefaultConfig(nodes, threadsPerNode))
}

// RunConfig is Run with an explicit cluster configuration.
func RunConfig(name string, size Size, cfg cvm.Config) (cvm.Stats, error) {
	return RunConfigTol(name, size, cfg, 0)
}

// RunConfigTol is RunConfig with a widened relative checksum tolerance
// (0 keeps the default). Experiments that perturb cluster timing — e.g.
// the switch-cost ablation — change synchronization order and therefore
// floating-point accumulation order; the result is the same computation
// reassociated, which can drift past the default bound.
func RunConfigTol(name string, size Size, cfg cvm.Config, tol float64) (cvm.Stats, error) {
	stats, _, err := RunConfigFull(name, size, cfg, tol)
	return stats, err
}

// RunConfigFull is RunConfigTol returning the run's checksum alongside
// the statistics. The chaos suite uses the checksum as its correctness
// oracle: a run under any fault schedule must reproduce the fault-free
// checksum bit for bit.
func RunConfigFull(name string, size Size, cfg cvm.Config, tol float64) (cvm.Stats, float64, error) {
	app, err := New(name, size)
	if err != nil {
		return cvm.Stats{}, 0, err
	}
	if tol > 0 {
		app.(toleranceSetter).setCheckTol(tol)
	}
	if !app.SupportsThreads(cfg.ThreadsPerNode) {
		return cvm.Stats{}, 0, fmt.Errorf("apps: %s does not support %d threads per node",
			name, cfg.ThreadsPerNode)
	}
	cluster, err := cvm.New(cfg)
	if err != nil {
		return cvm.Stats{}, 0, err
	}
	if err := app.Setup(cluster); err != nil {
		return cvm.Stats{}, 0, err
	}
	stats, err := cluster.Run(app.Main)
	if err != nil {
		return cvm.Stats{}, 0, fmt.Errorf("apps: %s run: %w", name, err)
	}
	if err := app.Check(); err != nil {
		return cvm.Stats{}, app.Checksum(), fmt.Errorf("apps: %s check: %w", name, err)
	}
	return stats, app.Checksum(), nil
}
