package main

import (
	"fmt"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/metrics"
	"cvm/internal/rt"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// cell is one application run at one input size and cluster shape: the
// benchmark's unit of work, and one op when it runs.
type cell struct {
	app     string
	size    apps.Size
	nodes   int
	threads int
}

var sizeNames = map[apps.Size]string{apps.SizeTest: "test", apps.SizeSmall: "small", apps.SizePaper: "paper"}

func (c cell) String() string {
	return fmt.Sprintf("%s %dx%d %s", c.app, c.nodes, c.threads, sizeNames[c.size])
}

// observers selects what a simulated run has attached: the trace
// recorder with its Chrome export, the invariant checker, the metrics
// registry with its JSON report. export also finishes the checker and
// writes every export after the run; without it the observers are only
// attached, which isolates what recording costs. The zero value is a
// bare run.
type observers struct {
	rec, chk, reg bool
	export        bool
}

var allObservers = observers{rec: true, chk: true, reg: true, export: true}

// simOut is what one simulated cell run produced.
type simOut struct {
	stats       cvm.Stats
	host        time.Duration
	events      int   // trace events recorded
	chromeBytes int64 // Chrome JSON size
	reportBytes int64 // metrics report JSON size
}

// countWriter discards what the exporters write and keeps the size, so
// an export costs its formatting and no disk.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runSim runs one simulated cell through the public API and records the
// op. variant distinguishes configurations whose simulated statistics
// may legitimately differ (engine mode, codec accounting); runs that
// must agree exactly pass the same variant. mut may be nil.
func (b *bench) runSim(c cell, variant string, mut func(*cvm.Config), obs observers) simOut {
	b.spans.beginCell()
	var out simOut
	var err error
	start := time.Now()
	b.spans.do("cell", func() {
		var app apps.App
		b.spans.do("apps.New", func() { app, err = apps.New(c.app, c.size) })
		if err == nil {
			out, err = simCell(b.spans, app, c, mut, obs)
		}
	})
	out.host = time.Since(start)
	b.led.op(c.String()+variant, statsPrint(out.stats), err)
	return out
}

// simCell runs app, a fresh instance of c's application, on a fresh
// cluster of c's shape with obs attached.
func simCell(sp *spanRecorder, app apps.App, c cell, mut func(*cvm.Config), obs observers) (out simOut, err error) {
	cfg := cvm.DefaultConfig(c.nodes, c.threads)
	if mut != nil {
		mut(&cfg)
	}
	var rec *trace.Recorder
	var chk *check.Checker
	var reg *cvm.Metrics
	if obs.rec {
		rec = trace.NewRecorder(c.nodes, c.threads, 0)
		cfg.Tracer = rec
	}
	if obs.chk {
		chk = check.New(c.nodes, c.threads)
		cfg.Tracer = chk
	}
	if obs.rec && obs.chk {
		cfg.Tracer = trace.Tee(rec, chk)
	}
	if obs.reg {
		reg = cvm.NewMetrics()
		cfg.Metrics = reg
	}

	var cluster *cvm.Cluster
	sp.do("cvm.New", func() { cluster, err = cvm.New(cfg) })
	if err != nil {
		return out, err
	}
	sp.do("App.Setup", func() { err = app.Setup(cluster) })
	if err != nil {
		return out, err
	}
	sp.do("Cluster.Run", func() { out.stats, err = cluster.Run(app.Main) })
	if err != nil {
		return out, err
	}
	sp.do("App.Check", func() { err = app.Check() })
	if err != nil {
		return out, err
	}
	if rec != nil {
		out.events = rec.Len()
	}
	if !obs.export {
		return out, nil
	}
	if chk != nil {
		sp.do("Checker.Finish", chk.Finish)
		if err = chk.Err(); err != nil {
			return out, err
		}
	}
	if rec != nil {
		var w countWriter
		sp.do("trace.WriteChrome", func() { err = trace.WriteChrome(&w, rec) })
		if err != nil {
			return out, err
		}
		out.chromeBytes = w.n
	}
	if reg != nil {
		var snap *cvm.MetricsSnapshot
		var rep *cvm.MetricsReport
		var w countWriter
		sp.do("Registry.Snapshot", func() { snap = reg.Snapshot() })
		sp.do("metrics.NewReport", func() {
			rep = metrics.NewReport(metrics.Meta{App: c.app, Config: c.String()}, snap, 10)
		})
		sp.do("Report.WriteJSON", func() { err = rep.WriteJSON(&w) })
		if err != nil {
			return out, err
		}
		out.reportBytes = w.n
	}
	return out, nil
}

// rtOut is what one real-runtime cell run produced.
type rtOut struct {
	elapsed time.Duration
	net     transport.Stats
}

// runRT runs one cell on the real runtime over the in-process loopback
// transport and records the op. met may be nil.
func (b *bench) runRT(c cell, met *rt.Metrics) rtOut {
	b.spans.beginCell()
	var out rtOut
	var sum float64
	var err error
	b.spans.do("cell", func() { out, sum, err = rtCell(b.spans, c, met) })
	b.led.op(c.String()+" rt", checksumPrint(sum), err)
	return out
}

func rtCell(sp *spanRecorder, c cell, met *rt.Metrics) (out rtOut, sum float64, err error) {
	var app apps.App
	sp.do("apps.New", func() { app, err = apps.New(c.app, c.size) })
	if err != nil {
		return out, 0, err
	}
	cfg := rt.DefaultConfig(c.nodes, c.threads)
	cfg.Metrics = met
	var cluster *rt.Cluster
	sp.do("rt.NewCluster", func() { cluster, err = rt.NewCluster(cfg) })
	if err != nil {
		return out, 0, err
	}
	sp.do("App.Setup", func() { err = app.Setup(cluster) })
	if err != nil {
		return out, 0, err
	}
	var res rt.Result
	sp.do("RunLoopback", func() { res, err = cluster.RunLoopback(app.Main) })
	if err != nil {
		return out, 0, err
	}
	sp.do("App.Check", func() { err = app.Check() })
	return rtOut{elapsed: res.Elapsed, net: res.Net}, app.Checksum(), err
}
