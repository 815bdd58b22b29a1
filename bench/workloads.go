package main

import (
	"math/rand"
	"slices"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/harness"
	"cvm/internal/rt"
)

// Concurrency the system under test is given, sized for a 2-core host.
// The driver itself issues one cell at a time.
const (
	poolWorkers   = 2 // harness pool width of the sim-grid pooled pass
	engineWorkers = 2 // windowed-engine width of sim-scale
	rtNodes       = 4 // in-process nodes of the real runtime
)

// workload is one set of inputs; BENCHMARK.json says why each was
// chosen. Every workload runs its cells in two configurations, so that
// each reports the same end-to-end metrics: pass_s is the primary
// configuration, alt_pass_s the alternative.
type workload struct {
	name string
	// cells lists the workload's cells; smoke shrinks every input to
	// size test so the whole benchmark runs in seconds under go test.
	cells func(smoke bool) []cell
	// warm is one set-up: the warm-up ops that let lazy initialisation
	// finish before timing starts.
	warm func(b *bench)
	// round runs one pass per configuration, and in a traced run one
	// more pass with the span recorder on.
	round func(b *bench)
}

var workloads = []*workload{
	{
		name: "sim-grid",
		cells: func(smoke bool) []cell {
			var cs []cell
			for _, app := range harness.AppOrder {
				size := apps.SizeSmall
				// watersp at size small is 14 s of a 17 s pass; one
				// pass would not fit a run, so it runs at size test.
				if smoke || app == "watersp" {
					size = apps.SizeTest
				}
				for _, t := range []int{1, 2, 4} {
					cs = append(cs, cell{app, size, 8, t})
				}
			}
			return cs
		},
		warm: func(b *bench) {
			for _, c := range b.cells {
				if c.threads == 1 {
					b.runSim(c, "", nil, observers{})
				}
			}
		},
		round: gridRound,
	},
	{
		name: "sim-scale",
		cells: func(smoke bool) []cell {
			if smoke {
				return []cell{{"scaleout", apps.SizeTest, 16, 1}}
			}
			return []cell{{"scaleout", apps.SizeSmall, 192, 1}}
		},
		warm: func(b *bench) {
			c := b.cells[0]
			c.nodes /= 4
			b.runSim(c, " windowed", windowed, observers{})
			b.runSim(c, " sequential", nil, observers{})
		},
		round: scaleRound,
	},
	{
		name: "sim-observed",
		cells: func(smoke bool) []cell {
			cs := []cell{
				{"waternsq", apps.SizePaper, 8, 4},
				{"scaleout", apps.SizeSmall, 64, 1},
				{"fft", apps.SizeSmall, 8, 2},
				{"sor", apps.SizeSmall, 8, 2},
			}
			if smoke {
				for i := range cs {
					cs[i].size = apps.SizeTest
					cs[i].nodes = 8
				}
			}
			return cs
		},
		warm: func(b *bench) {
			for _, c := range b.cells {
				b.runSim(c, "", nil, observers{})
			}
		},
		round: observedRound,
	},
	{
		name: "rt-loopback",
		cells: func(smoke bool) []cell {
			size := apps.SizeSmall
			if smoke {
				size = apps.SizeTest
			}
			var cs []cell
			for _, app := range harness.AppOrder {
				cs = append(cs, cell{app, size, rtNodes, 2})
			}
			return cs
		},
		warm: func(b *bench) {
			for _, c := range b.cells {
				b.runRT(c, nil)
			}
		},
		round: rtRound,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench is the state of one run of one workload.
type bench struct {
	options
	w     *workload
	cells []cell
	rng   *rand.Rand
	led   *ledger

	// recorder holds the spans of a traced run; spans points at it only
	// while a traced pass or a kernel runs, so the passes that produce
	// end-to-end numbers run with nothing attached.
	recorder *spanRecorder
	spans    *spanRecorder
	spanWall time.Duration // wall time spent with the recorder on

	pass       []float64            // host seconds per primary pass
	alt        []float64            // host seconds per alternative pass
	tracedPass []float64            // host seconds per span-recorded primary pass
	cellMs     map[string][]float64 // host ms per cell, primary passes
	extra      map[string][]float64 // further per-pass samples of traced rounds
	counts     simCounts            // exact simulated counts of one primary pass
	counted    bool
	rtSnap     rtCounts // real-runtime counts of the last metrics pass
}

// simCounts are the exact simulated counts of one pass, from cvm.Stats.
type simCounts struct {
	wall     cvm.Time
	total    cvm.NodeStats
	accesses int64
	dmisses  int64
	msgs     int64
	bytes    int64
	events   int64 // trace events recorded
	chromeB  int64
	reportB  int64
}

func (s *simCounts) add(o simOut) {
	s.wall += o.stats.Wall
	s.total.Add(o.stats.Total)
	s.accesses += o.stats.MemTotal.Accesses
	s.dmisses += o.stats.MemTotal.DCacheMisses
	s.msgs += o.stats.Net.TotalMsgs()
	s.bytes += o.stats.Net.TotalBytes()
	s.events += int64(o.events)
	s.chromeB += o.chromeBytes
	s.reportB += o.reportBytes
}

// shuffled returns the cells in this pass's order.
func (b *bench) shuffled() []cell {
	cs := append([]cell(nil), b.cells...)
	b.rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

func (b *bench) sample(name string, v float64) {
	b.extra[name] = append(b.extra[name], v)
}

// withSpans runs fn with the span recorder on.
func (b *bench) withSpans(fn func()) {
	b.spans = b.recorder
	start := time.Now()
	fn()
	b.spanWall += time.Since(start)
	b.spans = nil
}

// simPass runs the cells one at a time and returns the summed host
// seconds. A primary pass (record) also feeds the per-cell samples and,
// once, the exact counts.
func (b *bench) simPass(cells []cell, variant string, mut func(*cvm.Config), obs observers, record bool) float64 {
	var total time.Duration
	count := record && !b.counted
	for _, c := range cells {
		out := b.runSim(c, variant, mut, obs)
		total += out.host
		if record {
			b.cellMs[c.String()] = append(b.cellMs[c.String()], ms(out.host))
		}
		if count {
			b.counts.add(out)
		}
	}
	if count {
		b.counted = true
	}
	return sec(total)
}

func gridRound(b *bench) {
	cells := b.shuffled()
	b.pass = append(b.pass, b.simPass(cells, "", nil, observers{}, true))
	b.alt = append(b.alt, b.poolPass(cells))
	if b.traced {
		b.withSpans(func() {
			b.tracedPass = append(b.tracedPass, b.simPass(cells, "", nil, observers{}, false))
		})
	}
}

// poolPass runs the cells through harness.RunGridParallel, one call per
// input size, and checks every cell against the sequential pass.
func (b *bench) poolPass(cells []cell) float64 {
	type group struct {
		size   apps.Size
		names  []string
		shapes []harness.Shape
		cells  []cell
	}
	var groups []*group
	for _, c := range cells {
		var g *group
		for _, have := range groups {
			if have.size == c.size {
				g = have
			}
		}
		if g == nil {
			g = &group{size: c.size}
			groups = append(groups, g)
		}
		g.cells = append(g.cells, c)
		if !slices.Contains(g.names, c.app) {
			g.names = append(g.names, c.app)
		}
		sh := harness.Shape{Nodes: c.nodes, Threads: c.threads}
		if !slices.Contains(g.shapes, sh) {
			g.shapes = append(g.shapes, sh)
		}
	}
	var total time.Duration
	for _, g := range groups {
		start := time.Now()
		res, err := harness.RunGridParallel(g.names, g.size, g.shapes, nil, poolWorkers)
		total += time.Since(start)
		for _, c := range g.cells {
			b.led.op(c.String(), statsPrint(res[harness.Key{App: c.app, Nodes: c.nodes, Threads: c.threads}]), err)
		}
	}
	return sec(total)
}

func windowed(cfg *cvm.Config) { cfg.EngineWorkers = engineWorkers }

func windowedCompressed(cfg *cvm.Config) {
	cfg.EngineWorkers = engineWorkers
	cfg.CompressDiffs = true
}

func scaleRound(b *bench) {
	b.pass = append(b.pass, b.simPass(b.cells, " windowed", windowed, observers{}, true))
	b.alt = append(b.alt, b.simPass(b.cells, " sequential", nil, observers{}, false))
	if b.traced {
		b.withSpans(func() {
			b.tracedPass = append(b.tracedPass, b.simPass(b.cells, " windowed", windowed, observers{}, false))
			b.sample("compressed", b.simPass(b.cells, " windowed+compressed", windowedCompressed, observers{}, false))
		})
	}
}

func observedRound(b *bench) {
	cells := b.shuffled()
	b.pass = append(b.pass, b.simPass(cells, "", nil, allObservers, true))
	b.alt = append(b.alt, b.simPass(cells, "", nil, observers{}, false))
	if b.traced {
		b.withSpans(func() {
			b.tracedPass = append(b.tracedPass, b.simPass(cells, "", nil, allObservers, false))
			b.sample("bare", b.simPass(cells, "", nil, observers{}, false))
			b.sample("rec_only", b.simPass(cells, "", nil, observers{rec: true}, false))
			b.sample("chk_only", b.simPass(cells, "", nil, observers{chk: true}, false))
			b.sample("reg_only", b.simPass(cells, "", nil, observers{reg: true}, false))
		})
	}
}

// rtCounts are the real-runtime counts of one pass with rt.Metrics on.
type rtCounts struct {
	faultWaitNs, lockWaitNs, barrierWaitNs int64
	remoteFaults, diffBytes                int64
	msgs, bytes                            int64
}

// rtPass runs the cells on the real runtime and returns the summed
// Result.Elapsed in seconds.
func (b *bench) rtPass(cells []cell, threads int, record, withMetrics bool) float64 {
	var total time.Duration
	var rc rtCounts
	for _, c := range cells {
		c.threads = threads
		var met *rt.Metrics
		if withMetrics {
			met = rt.NewMetrics()
		}
		out := b.runRT(c, met)
		total += out.elapsed
		if record {
			b.cellMs[c.String()] = append(b.cellMs[c.String()], ms(out.elapsed))
		}
		if withMetrics {
			snap := met.Snapshot()
			for i := range snap.Nodes {
				n := &snap.Nodes[i]
				rc.faultWaitNs += n.FaultThreadWait.Sum
				rc.lockWaitNs += n.Lock2Hop.Sum + n.Lock3Hop.Sum + n.LockLocalWait.Sum
				rc.barrierWaitNs += n.BarrierStall.Sum
				rc.remoteFaults += n.FaultService.Count
				rc.diffBytes += n.DiffBytes.Sum
			}
			rc.msgs += out.net.TotalMsgs()
			rc.bytes += out.net.TotalBytes()
		}
	}
	if withMetrics {
		b.rtSnap = rc
	}
	return sec(total)
}

func rtRound(b *bench) {
	cells := b.shuffled()
	b.pass = append(b.pass, b.rtPass(cells, 2, true, false))
	b.alt = append(b.alt, b.rtPass(cells, 1, false, false))
	if b.traced {
		b.withSpans(func() {
			b.tracedPass = append(b.tracedPass, b.rtPass(cells, 2, false, false))
			b.sample("rt_metrics", b.rtPass(cells, 2, false, true))
		})
	}
}
