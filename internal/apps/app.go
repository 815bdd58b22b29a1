// Package apps implements the paper's application suite (Table 1) against
// the CVM API: Barnes, FFT, Ocean, SOR, SWM750, Water-Sp and Water-Nsq,
// plus the Water-Nsq source-modification variants of Table 5.
//
// Every application follows the paper's structure: thread 0 initializes
// the shared data, an initialization barrier separates startup from the
// measured steady state, and work is partitioned by dividing the problem
// size by the total number of threads (so per-node multi-threading is
// transparent to the source, as in the paper's experiments).
//
// Each application has a sequential reference used by correctness tests:
// the DSM execution must reproduce the reference checksum.
package apps

import (
	"fmt"
	"math"
	"sort"

	"cvm"
)

// Size selects an input scale.
type Size int

// Input scales. SizeTest keeps unit tests fast; SizeSmall is the default
// for benchmarks (the paper's communication/computation ratios at reduced
// cost); SizePaper is the paper's Table 1 input.
const (
	SizeTest Size = iota
	SizeSmall
	SizePaper
)

// ParseSize converts a flag value.
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "paper":
		return SizePaper, nil
	default:
		return 0, fmt.Errorf("apps: unknown size %q (want test, small or paper)", s)
	}
}

// App is one benchmark application.
type App interface {
	// Name is the registry key (lower case).
	Name() string

	// SupportsThreads reports whether the app can run at the given
	// per-node threading level (Ocean requires a power of two).
	SupportsThreads(t int) bool

	// Setup allocates the app's shared segments on the cluster.
	Setup(c cvm.Allocator) error

	// Main is the thread body. It must initialize on global thread 0,
	// call MarkSteadyState after the init barrier, and leave a checksum
	// via the app's own state for Check.
	Main(w cvm.Worker)

	// Check validates the parallel result against the sequential
	// reference, returning an error on mismatch.
	Check() error

	// Checksum returns the run's computed checksum (valid after Main
	// completes on all threads). The chaos suite compares it across
	// fault schedules: retransmission only perturbs virtual timing, so
	// a faulted run must reproduce the fault-free checksum exactly.
	Checksum() float64
}

// factory builds a fresh App for one run.
type factory func(size Size) App

var registry = map[string]factory{}

// register adds an application factory; called from init in each app file.
func register(name string, f factory) { registry[name] = f }

// New builds a fresh application instance by name.
func New(name string, size Size) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return f(size), nil
}

// Names lists registered applications in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultCheckTol is the relative checksum tolerance that absorbs the
// floating-point reassociation caused by different thread counts (the
// paper's applications tolerate the same).
const defaultCheckTol = 1e-6

// verdict is the run state every app embeds: the checksum its Main
// leaves behind.
type verdict struct {
	checksum float64
}

// Checksum implements App.
func (v *verdict) Checksum() float64 { return v.checksum }

// checkClose validates the run's checksum against the reference value
// within defaultCheckTol.
func (v *verdict) checkClose(name string, want float64) error {
	diff, scale := math.Abs(v.checksum-want), math.Max(1, math.Abs(want))
	if diff > defaultCheckTol*scale {
		return fmt.Errorf("%s: checksum %g, reference %g (relative error %g, tolerance %g)",
			name, v.checksum, want, diff/scale, defaultCheckTol)
	}
	return nil
}

// qfix rounds x to the nearest multiple of 2^-32, the fixed-point grid
// shared accumulators use. Residual and energy sums are accumulated
// across threads in lock-grant (or thread-schedule) order, and that
// order legally shifts when fault injection perturbs virtual timing;
// with every addend on the grid and every partial sum well inside
// float64's 53-bit exact range, the additions are exact and therefore
// associative — the total is bit-identical under any fault schedule,
// which is the chaos suite's correctness oracle. The quantization error
// (≤ 2^-33 per addend) is far inside the sequential-reference tolerance.
func qfix(x float64) float64 { return math.Round(x*(1<<32)) / (1 << 32) }

// lcg is a small deterministic pseudo-random generator for initial data.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64((*r)>>11) / float64(1<<53)
}

// chunkOf splits n items across total threads, assigning the remainder to
// the leading threads (the paper's problem-size / thread-count division).
func chunkOf(n, threads, id int) (lo, hi int) {
	base := n / threads
	rem := n % threads
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// sortInts sorts a small int slice ascending (insertion sort; inputs are
// tiny neighbour lists).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
