// Package sim implements a deterministic, sequential discrete-event engine
// with cooperative green threads.
//
// The engine is the substrate for the simulated cluster: each simulated
// processor (Proc) owns a virtual clock and a FIFO run queue of Tasks.
// Exactly one entity runs at any moment — either a pending event (message
// delivery) or the active task of one processor — and entities are always
// dispatched in virtual-time order, which makes every simulation run
// bit-reproducible.
//
// Tasks execute ordinary Go code. Every simulated action (computing,
// sending, blocking) goes through Task methods that advance the owning
// processor's clock. A task yields control back to the engine before its
// clock reaches the next pending event or runs more than the lookahead
// past another processor, so no task ever observes state from an event
// that has not yet been applied; and before any action another processor
// can observe, it waits for its turn in the global order (Sync).
package sim

import "fmt"

// Time is a virtual-time instant or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond

	// MaxTime is the largest representable instant; it is used as the
	// horizon when no other entity bounds a running task.
	MaxTime Time = 1<<63 - 1
)

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fµs", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
