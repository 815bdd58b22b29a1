package harness

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cvm"
	"cvm/internal/metrics"
	"cvm/internal/trace"
)

// Instruments is the block of observation flags cvm-run, cvm-node and
// cvm-bench share — declared, validated and honoured in one place, so
// an instrument behaves the same whichever tool it is typed at.
type Instruments struct {
	Trace      string // Chrome trace JSON path
	TraceLimit int
	Metrics    string // metrics report JSON path
	CSV        string // metrics report CSV path
	Report     bool
	Interval   time.Duration
	Top        int
	CPUProfile string // host CPU profile path (pprof)
	MemProfile string // host allocation profile path (pprof)
}

// Register declares the named instrument flags on fs — each tool takes
// the subset it can honour. scope qualifies what the instruments observe
// in that tool ("coordinator only: ").
func (in *Instruments) Register(fs *flag.FlagSet, scope string, names ...string) {
	for _, name := range names {
		switch name {
		case "trace":
			fs.StringVar(&in.Trace, name, "", scope+"record protocol events and write Chrome trace JSON to this file")
		case "trace-limit":
			fs.IntVar(&in.TraceLimit, name, 0, "per-node trace event ring bound (0 = unbounded)")
		case "metrics":
			fs.StringVar(&in.Metrics, name, "", scope+"collect metrics and write the JSON report to this file")
		case "metrics-csv":
			fs.StringVar(&in.CSV, name, "", scope+"write the metrics report as CSV to this file")
		case "report":
			fs.BoolVar(&in.Report, name, false, scope+"print the human-readable metrics profile (histograms, hot pages/locks, timeline)")
		case "metrics-interval":
			fs.DurationVar(&in.Interval, name, 0, "utilization-timeline bin width in virtual time (0 = default 10ms)")
		case "metrics-top":
			fs.IntVar(&in.Top, name, 10, "rows kept in the hot-page and hot-lock tables")
		case "cpuprofile":
			fs.StringVar(&in.CPUProfile, name, "", "write a host CPU profile of the run to this file (go tool pprof)")
		case "memprofile":
			fs.StringVar(&in.MemProfile, name, "", "write a host allocation profile of the run to this file (go tool pprof)")
		default:
			panic("harness: no instrument flag -" + name)
		}
	}
}

// IsSet reports whether the flag was given on fs's command line: how an
// orphan (-fault-seed without -faults) is told from a default.
func IsSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// ParseInts parses the comma-separated positive integers of a list
// flag (-threads 1,2,4; -scale-nodes 8,64).
func ParseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s value %q", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s is empty", flagName)
	}
	return out, nil
}

// WantMetrics reports whether any metrics sink was asked for.
func (in *Instruments) WantMetrics() bool { return in.Metrics != "" || in.CSV != "" || in.Report }

// Parse parses the tool's command line and checks what every tool
// checks: no positional arguments, instrument values in range, and no
// instrument flag set without the instrument it tunes. topAlso names
// further flags of the tool that consume -metrics-top (cvm-node's
// -debug-addr).
func (in *Instruments) Parse(fs *flag.FlagSet, args []string, topAlso ...string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	var sinks []string
	for _, name := range []string{"metrics", "metrics-csv", "report"} {
		if fs.Lookup(name) != nil {
			sinks = append(sinks, "-"+name)
		}
	}
	topUsed := in.WantMetrics()
	for _, name := range topAlso {
		topUsed = topUsed || IsSet(fs, name)
	}
	switch {
	case in.TraceLimit < 0:
		return fmt.Errorf("-trace-limit must be >= 0, got %d", in.TraceLimit)
	case in.Interval < 0:
		return fmt.Errorf("-metrics-interval must be >= 0, got %v", in.Interval)
	case fs.Lookup("metrics-top") != nil && in.Top < 1:
		return fmt.Errorf("-metrics-top must be >= 1, got %d", in.Top)
	case IsSet(fs, "trace-limit") && in.Trace == "":
		return fmt.Errorf("-trace-limit needs -trace")
	case IsSet(fs, "metrics-interval") && !in.WantMetrics():
		return fmt.Errorf("-metrics-interval needs %s", strings.Join(sinks, " or "))
	case IsSet(fs, "metrics-top") && !topUsed:
		return fmt.Errorf("-metrics-top needs %s", strings.Join(sinks, " or "))
	}
	return nil
}

// StartProfiles begins the host profiles -cpuprofile and -memprofile ask
// for. Both files are created here, so an unwritable path fails before
// the run starts; the returned stop ends the CPU profile and writes the
// allocation profile (every allocation since the process began, after a
// collection — what `go test -memprofile` writes) and must be called
// once, when the run is over. Profiles watch the host, never the
// simulation: no simulated number moves.
func (in *Instruments) StartProfiles() (stop func() error, err error) {
	create := func(flag, path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", flag, err)
		}
		return f, nil
	}
	cpu, err := create("cpuprofile", in.CPUProfile)
	mem, merr := create("memprofile", in.MemProfile)
	if err = errors.Join(err, merr); err == nil && cpu != nil {
		if err = pprof.StartCPUProfile(cpu); err != nil {
			err = fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if err != nil {
		cpu.Close() // Close is a no-op error on a nil *os.File
		mem.Close()
		return nil, err
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // materialize every allocation up to now
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// Meter applies the metrics flags to cells: a registry per cell when
// any sink was asked for, binned at -metrics-interval.
func (in *Instruments) Meter(cells []Cell) {
	for i := range cells {
		cells[i].Metrics = in.WantMetrics()
		if in.Interval > 0 {
			cells[i] = cells[i].With(func(cfg *cvm.Config) {
				cfg.Metrics.SetInterval(cvm.Time(in.Interval.Nanoseconds()))
			})
		}
	}
}

// Recorder returns the trace recorder -trace asks for, nil without it.
func (in *Instruments) Recorder(nodes, threads int) *trace.Recorder {
	if in.Trace == "" {
		return nil
	}
	return trace.NewRecorder(nodes, threads, in.TraceLimit)
}

// Emit writes what an instrumented run leaves behind, the same way in
// every tool and on either backend: the Chrome trace, then the metrics
// report as text, JSON and CSV. rec and snap are nil when
// the run was not traced or not metered; real is the wall-clock section
// of a real-backend report.
func (in *Instruments) Emit(out io.Writer, meta metrics.Meta, rec *trace.Recorder, snap *metrics.Snapshot, real *metrics.RealStats) error {
	if rec != nil {
		fmt.Fprintln(out)
		if err := trace.WriteChromeFile(out, in.Trace, rec); err != nil {
			return err
		}
	}
	if snap == nil || !in.WantMetrics() {
		return nil
	}
	rep := metrics.NewReport(meta, snap, in.Top)
	rep.Real = real
	fmt.Fprintln(out)
	return rep.Emit(out, in.Report, in.Metrics, in.CSV)
}
