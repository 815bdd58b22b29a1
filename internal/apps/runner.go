package apps

import (
	"fmt"

	"cvm"
	"cvm/internal/rt"
)

// Run executes the named application on a fresh simulated cluster with
// the paper's default calibration and returns the run statistics.
func Run(name string, size Size, nodes, threadsPerNode int) (cvm.Stats, error) {
	stats, _, err := RunConfig(name, size, cvm.DefaultConfig(nodes, threadsPerNode))
	return stats, err
}

// RunConfig is the one configurable simulator entry point: it runs name
// on the cluster cfg describes, validates the result against the
// sequential reference, and returns the statistics and the checksum
// (the chaos suite's oracle: any fault schedule must reproduce the
// fault-free checksum bit for bit).
func RunConfig(name string, size Size, cfg cvm.Config) (cvm.Stats, float64, error) {
	cluster, err := cvm.New(cfg)
	if err != nil {
		return cvm.Stats{}, 0, err
	}
	var stats cvm.Stats
	sum, err := Exec(name, size, cfg.ThreadsPerNode, cluster, func(main func(cvm.Worker)) (err error) {
		stats, err = cluster.Run(main)
		return err
	})
	if err != nil {
		return cvm.Stats{}, sum, err
	}
	return stats, sum, nil
}

// Exec is the Setup→run→Check skeleton behind every way of running an
// application: it lays a fresh instance of name out on alloc, hands
// its thread body to run (a cluster's Run, bracketed by whatever the
// caller measures), and validates the result, returning the checksum.
func Exec(name string, size Size, threads int, alloc cvm.Allocator, run func(main func(cvm.Worker)) error) (float64, error) {
	app, err := setup(name, size, threads, alloc)
	if err != nil {
		return 0, err
	}
	return verify(app, run(app.Main))
}

// setup builds a fresh instance of name, refuses a threading level it
// cannot run at, and allocates its shared segments on alloc.
func setup(name string, size Size, threads int, alloc cvm.Allocator) (App, error) {
	app, err := New(name, size)
	if err != nil {
		return nil, err
	}
	if !app.SupportsThreads(threads) {
		return nil, fmt.Errorf("apps: %s does not support %d threads per node", name, threads)
	}
	if err := app.Setup(alloc); err != nil {
		return nil, err
	}
	return app, nil
}

// verify closes a run: a run error is attributed to the application,
// otherwise the result is checked against the sequential reference.
func verify(app App, runErr error) (float64, error) {
	if runErr != nil {
		return 0, fmt.Errorf("apps: %s run: %w", app.Name(), runErr)
	}
	if err := app.Check(); err != nil {
		return app.Checksum(), fmt.Errorf("apps: %s check: %w", app.Name(), err)
	}
	return app.Checksum(), nil
}

// NewRT builds name and the real-runtime cluster it runs on — the one
// place an application meets rt.NewCluster. Every node of a
// multi-process run calls it with the same arguments, so the shared
// address space lays out the same everywhere.
func NewRT(name string, size Size, cfg rt.Config) (App, *rt.Cluster, error) {
	cl, err := rt.NewCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	app, err := setup(name, size, cfg.ThreadsPerNode, cl)
	return app, cl, err
}

// RunLoopback runs name on the real runtime with every node in this
// process and returns the wall-time result and the verified checksum.
func RunLoopback(name string, size Size, cfg rt.Config) (rt.Result, float64, error) {
	app, cl, err := NewRT(name, size, cfg)
	if err != nil {
		return rt.Result{}, 0, err
	}
	res, err := cl.RunLoopback(app.Main)
	sum, err := verify(app, err)
	return res, sum, err
}
