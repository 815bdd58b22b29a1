package chaos

import (
	"bytes"
	"fmt"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/harness"
	"cvm/internal/metrics"
	"cvm/internal/trace"
)

const (
	chaosNodes   = 4
	chaosThreads = 2
)

// cell is app at the chaos shape under fp (nil = fault-free), on the
// sequential engine (engineWorkers 0) or the windowed one, optionally
// with adaptive coherence.
func cell(app string, fp *cvm.FaultPlan, engineWorkers int, adapt bool) harness.Cell {
	return harness.Cell{App: app, Nodes: chaosNodes, Threads: chaosThreads, Mut: func(cfg *cvm.Config) {
		cfg.Faults, cfg.EngineWorkers, cfg.Adapt = fp, engineWorkers, adapt
	}}
}

// baseline computes (and caches per test run) each app's fault-free
// checksum — the oracle every faulted run must reproduce exactly.
var baselines = map[string]float64{}

func baseline(t *testing.T, app string) float64 {
	t.Helper()
	if sum, ok := baselines[app]; ok {
		return sum
	}
	res, err := RunOne(cell(app, nil, 0, false), apps.SizeTest)
	if err != nil {
		t.Fatalf("%s fault-free baseline: %v", app, err)
	}
	if res.Checker.Count() != 0 {
		t.Fatalf("%s fault-free run violated invariants:\n%v", app, res.Checker.Err())
	}
	if res.Stats.Total.Retransmits != 0 || res.Stats.Total.DupsSuppressed != 0 {
		t.Fatalf("%s fault-free run recorded transport activity", app)
	}
	baselines[app] = res.Checksum
	return res.Checksum
}

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, spec string, seed uint64) *cvm.FaultPlan {
	t.Helper()
	fp, err := cvm.ParseFaults(spec, seed)
	if err != nil {
		t.Fatalf("ParseFaults(%q): %v", spec, err)
	}
	return fp
}

// assertClean fails the test (and writes the CI artifact) unless the run
// reproduced the baseline checksum with zero invariant violations.
func assertClean(t *testing.T, app, context string, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s [%s]: run failed: %v", app, context, err)
		return
	}
	if want := baseline(t, app); res.Checksum != want {
		t.Errorf("%s [%s]: checksum %x, fault-free %x — faults changed the computation",
			app, context, res.Checksum, want)
	}
	if n := res.Checker.Count(); n != 0 {
		if path, werr := WriteViolationReport(
			fmt.Sprintf("%s-%s", app, t.Name()), app+" "+context, res.Checker); werr == nil && path != "" {
			t.Logf("violation report: %s", path)
		}
		t.Errorf("%s [%s]: %d invariant violation(s):\n%v", app, context, n, res.Checker.Err())
	}
}

// TestDropSweep is the chaos table: every application at every drop rate
// in {0, 0.1%, 1%, 5%} must reproduce its fault-free checksum with zero
// invariant violations.
func TestDropSweep(t *testing.T) {
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		for _, app := range harness.AppOrder {
			rate, app := rate, app
			t.Run(fmt.Sprintf("%s/drop=%g", app, rate), func(t *testing.T) {
				spec := fmt.Sprintf("drop=%g", rate)
				res, err := RunOne(cell(app, mustPlan(t, spec, 11), 0, false), apps.SizeTest)
				assertClean(t, app, spec, res, err)
				if rate == 0 && err == nil && res.Stats.Total.Retransmits != 0 {
					t.Errorf("drop=0 run retransmitted %d times", res.Stats.Total.Retransmits)
				}
			})
		}
	}
}

// TestAcceptanceAllFaults is the issue's acceptance gate: all seven
// applications at 1% drop + dup + reorder under seeds 5, 6 and 7
// produce fault-free-identical checksums with zero invariant violations,
// the metrics agree with NodeStats on retransmissions and suppressed
// duplicates, and every application loses a message in at least one of
// its runs.
func TestAcceptanceAllFaults(t *testing.T) {
	const spec = "drop=0.01,dup=0.01,reorder=0.01"
	var retransmits, dups int64
	for _, app := range harness.AppOrder {
		var dropped int64
		for _, seed := range []uint64{5, 6, 7} {
			c := cell(app, mustPlan(t, spec, seed), 0, false)
			c.Metrics = true
			res, err := RunOne(c, apps.SizeTest)
			context := fmt.Sprintf("%s seed %d", spec, seed)
			assertClean(t, app, context, res, err)
			if err != nil {
				continue
			}
			snap := res.Snapshot
			if got, want := int64(snap.Retransmits), res.Stats.Total.Retransmits; got != want {
				t.Errorf("%s [%s]: metrics Retransmits %d != NodeStats %d", app, context, got, want)
			}
			if got, want := int64(snap.DupSuppressed), res.Stats.Total.DupsSuppressed; got != want {
				t.Errorf("%s [%s]: metrics DupSuppressed %d != NodeStats %d", app, context, got, want)
			}
			dropped += int64(snap.NetDropped)
			retransmits += int64(snap.Retransmits)
			dups += int64(snap.DupSuppressed)
		}
		if dropped == 0 {
			t.Errorf("%s: 1%% drop runs at seeds 5, 6, 7 observed no drops in metrics", app)
		}
	}
	if retransmits == 0 {
		t.Error("acceptance sweep observed no retransmissions in metrics (Retransmits counter)")
	}
	if dups == 0 {
		t.Error("acceptance sweep suppressed no duplicate deliveries")
	}
}

// TestNodeInjections runs the suite's lock-heaviest app under pause and
// slowdown windows combined with network faults: node-level stalls must
// not break correctness either.
func TestNodeInjections(t *testing.T) {
	const spec = "drop=0.01,dup=0.005,pause=1:5ms:2ms,slow=0:0s:20ms:3"
	for _, app := range []string{"waternsq", "sor"} {
		res, err := RunOne(cell(app, mustPlan(t, spec, 17), 0, false), apps.SizeTest)
		assertClean(t, app, spec, res, err)
	}
}

// fuzzCorpus is the fixed seed corpus: CI runs exactly these schedules,
// so a red run reproduces anywhere from the seed alone.
var fuzzCorpus = []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597}

// TestFuzzSchedules sweeps randomized fault schedules (derived
// deterministically from the corpus seeds) across the application suite.
// On a failure it shrinks the schedule to a minimal failing spec before
// reporting, so the regression arrives pre-diagnosed.
func TestFuzzSchedules(t *testing.T) {
	corpus := fuzzCorpus
	if testing.Short() {
		corpus = corpus[:4]
	}
	for i, seed := range corpus {
		app := harness.AppOrder[i%len(harness.AppOrder)]
		spec := RandomSpec(seed)
		seed, app, spec := seed, app, spec
		t.Run(fmt.Sprintf("seed=%d/%s", seed, app), func(t *testing.T) {
			fails := func(spec string) bool {
				fp, err := cvm.ParseFaults(spec, seed)
				if err != nil {
					return false
				}
				res, err := RunOne(cell(app, fp, 0, false), apps.SizeTest)
				return err != nil || res.Checksum != baseline(t, app) || res.Checker.Count() != 0
			}
			if !fails(spec) {
				return
			}
			minSpec := ShrinkSpec(spec, fails)
			// Re-run the minimal schedule for the full diagnosis.
			res, err := RunOne(cell(app, mustPlan(t, minSpec, seed), 0, false), apps.SizeTest)
			assertClean(t, app, fmt.Sprintf("seed=%d spec=%q (shrunk from %q)", seed, minSpec, spec), res, err)
			if !t.Failed() {
				t.Errorf("%s seed=%d: full spec %q fails but shrunk %q passes — non-monotone failure",
					app, seed, spec, minSpec)
			}
		})
	}
}

// TestShrinkSpec pins the shrinker on a synthetic failure predicate.
func TestShrinkSpec(t *testing.T) {
	// Failure iff dup=0.01 present: everything else must shrink away.
	fails := func(spec string) bool {
		for _, item := range bytes.Split([]byte(spec), []byte(",")) {
			if string(item) == "dup=0.01" {
				return true
			}
		}
		return false
	}
	got := ShrinkSpec("drop=0.02,dup=0.01,reorder=0.03,jitter=100us", fails)
	if got != "dup=0.01" {
		t.Errorf("ShrinkSpec = %q, want %q", got, "dup=0.01")
	}
}

// TestRandomSpecDeterministic pins the schedule derivation: the corpus
// must mean the same schedules forever.
func TestRandomSpecDeterministic(t *testing.T) {
	for _, seed := range fuzzCorpus {
		if a, b := RandomSpec(seed), RandomSpec(seed); a != b {
			t.Fatalf("seed %d: RandomSpec not deterministic: %q vs %q", seed, a, b)
		}
		if _, err := cvm.ParseFaults(RandomSpec(seed), seed); err != nil {
			t.Errorf("seed %d: RandomSpec %q does not parse: %v", seed, RandomSpec(seed), err)
		}
	}
	if RandomSpec(1) == RandomSpec(2) {
		t.Error("distinct seeds produced identical schedules (suspicious)")
	}
}

// TestMetricsReportDeterminism: the same (seed, faults) run must produce
// a byte-identical metrics report — fault injection cannot cost the
// metrics layer its reproducibility guarantee.
func TestMetricsReportDeterminism(t *testing.T) {
	reportBytes := func() []byte {
		c := cell("waternsq", mustPlan(t, "drop=0.02,dup=0.01,reorder=0.01,jitter=100us", 23), 0, false)
		c.Metrics = true
		res, err := RunOne(c, apps.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checker.Count() != 0 {
			t.Fatalf("violations: %v", res.Checker.Err())
		}
		var buf bytes.Buffer
		rep := metrics.NewReport(metrics.Meta{App: "waternsq", Config: "chaos"}, res.Snapshot, 10)
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := reportBytes(), reportBytes()
	if !bytes.Equal(a, b) {
		t.Error("metrics reports differ across identical faulted runs")
	}
}

// TestGoldenTraceDeterminism: the same (seed, faults) run must produce a
// byte-identical Chrome trace, with the checker and recorder fanned out
// through trace.Tee — observation composes without perturbing either.
func TestGoldenTraceDeterminism(t *testing.T) {
	traceBytes := func() []byte {
		rec := trace.NewRecorder(chaosNodes, chaosThreads, 0)
		chk := checkerVia(t, rec)
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		if chk != 0 {
			t.Fatalf("faulted traced run violated %d invariant(s)", chk)
		}
		return buf.Bytes()
	}
	a, b := traceBytes(), traceBytes()
	if !bytes.Equal(a, b) {
		t.Error("chrome traces differ across identical faulted runs")
	}
	// The trace must actually contain fault-model and transport events
	// (the Chrome export renders them as "drop <class>" instants in the
	// fault-inject category and "retransmit <class>" in transport).
	for _, want := range []string{"fault-inject", `"drop `, `"retransmit `} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("faulted trace contains no %q entries", want)
		}
	}
}

// checkerVia runs sor under faults with the recorder and a checker
// tee'd on one Tracer hook, returning the violation count.
func checkerVia(t *testing.T, rec *trace.Recorder) int {
	t.Helper()
	chk := check.New(chaosNodes, chaosThreads)
	cfg := cvm.DefaultConfig(chaosNodes, chaosThreads)
	cfg.Tracer = trace.Tee(rec, chk)
	cfg.Faults = mustPlan(t, "drop=0.02,dup=0.01", 31)
	if _, _, err := apps.RunConfig("sor", apps.SizeTest, cfg); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	return chk.Count()
}
