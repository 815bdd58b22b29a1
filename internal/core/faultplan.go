package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cvm/internal/netsim"
	"cvm/internal/sim"
)

// FaultPlan bundles every fault-injection dimension for one run: the
// network fault model and node-level pause and slowdown windows. Each
// only moves virtual time: the protocol still sees every message exactly
// once. A nil *FaultPlan in Config means a fault-free run —
// byte-identical to builds predating fault injection.
type FaultPlan struct {
	// Net configures deterministic message drop/duplication/reordering,
	// latency jitter and the retransmission timing a drop costs (see
	// netsim.FaultParams).
	Net netsim.FaultParams

	// Pauses suspend a node's compute for a virtual-time window, as if
	// the OS had descheduled the DSM process.
	Pauses []NodePause

	// Slowdowns dilate a node's compute by a factor for a window,
	// modelling CPU contention from other jobs.
	Slowdowns []NodeSlowdown
}

// NodePause suspends node Node's compute over [From, To).
type NodePause struct {
	Node     int
	From, To sim.Time
}

// NodeSlowdown multiplies node Node's compute by Factor over [From, To).
type NodeSlowdown struct {
	Node     int
	From, To sim.Time
	Factor   float64
}

// Validate reports plan errors for a cluster of the given size.
func (fp *FaultPlan) Validate(nodes int) error {
	if fp == nil {
		return nil
	}
	if err := fp.Net.Validate(); err != nil {
		return err
	}
	for _, p := range fp.Pauses {
		if p.Node < 0 || p.Node >= nodes {
			return fmt.Errorf("core: pause on node %d, cluster has %d", p.Node, nodes)
		}
		if p.To <= p.From || p.From < 0 {
			return fmt.Errorf("core: pause window [%v, %v) on node %d is empty or negative", p.From, p.To, p.Node)
		}
	}
	for _, s := range fp.Slowdowns {
		if s.Node < 0 || s.Node >= nodes {
			return fmt.Errorf("core: slowdown on node %d, cluster has %d", s.Node, nodes)
		}
		if s.To <= s.From || s.From < 0 {
			return fmt.Errorf("core: slowdown window [%v, %v) on node %d is empty or negative", s.From, s.To, s.Node)
		}
		if s.Factor < 1 {
			return fmt.Errorf("core: slowdown factor %v on node %d, want ≥ 1", s.Factor, s.Node)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (fp *FaultPlan) Active() bool {
	return fp != nil && (fp.Net.Active() || len(fp.Pauses) > 0 || len(fp.Slowdowns) > 0)
}

// ParseFaultPlan builds a FaultPlan from a compact comma-separated spec,
// the format the -faults command-line flag accepts:
//
//	drop=0.01            drop probability, all classes
//	drop.lock=0.05       drop probability for one class (barrier|lock|diff)
//	dup=0.001            duplication probability (per-class variant likewise)
//	reorder=0.01         reorder probability (per-class variant likewise)
//	reorder-delay=2ms    extra delay for reordered messages (default 1ms)
//	jitter=500us         uniform extra delivery latency in [0, jitter)
//	pause=2:10ms:5ms     pause node 2 for 5ms starting at T=10ms
//	slow=0:0s:50ms:4     slow node 0 ×4 for [0, 50ms)
//	rto=10ms             initial retransmission timeout a drop costs
//	retries=20           retransmissions before a message fails the run
//
// Durations use Go syntax (time.ParseDuration). seed keys the fault
// PRNG. An empty spec yields an inactive plan (still carrying seed).
func ParseFaultPlan(spec string, seed uint64) (*FaultPlan, error) {
	fp := &FaultPlan{Net: netsim.FaultParams{Seed: seed}}
	reorderSet := false
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("core: fault spec item %q is not key=value", item)
		}
		base, class, perClass := strings.Cut(key, ".")
		switch base {
		case "drop", "dup", "reorder":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("core: %s probability %q, want a number in [0, 1]", base, val)
			}
			var arr *[netsim.NumClasses]float64
			switch base {
			case "drop":
				arr = &fp.Net.Drop
			case "dup":
				arr = &fp.Net.Dup
			default:
				arr = &fp.Net.Reorder
				reorderSet = reorderSet || p > 0
			}
			if perClass {
				c, err := parseClass(class)
				if err != nil {
					return nil, err
				}
				arr[c] = p
			} else {
				for c := range arr {
					arr[c] = p
				}
			}
		case "jitter":
			d, err := parseSimTime(val)
			if err != nil {
				return nil, fmt.Errorf("core: jitter=%q: %v", val, err)
			}
			fp.Net.JitterMax = d
		case "reorder-delay":
			d, err := parseSimTime(val)
			if err != nil {
				return nil, fmt.Errorf("core: reorder-delay=%q: %v", val, err)
			}
			fp.Net.ReorderDelay = d
		case "pause":
			f := strings.Split(val, ":")
			if len(f) != 3 {
				return nil, fmt.Errorf("core: pause=%q, want node:start:duration", val)
			}
			node, start, dur, err := parseWindow(f[0], f[1], f[2])
			if err != nil {
				return nil, fmt.Errorf("core: pause=%q: %v", val, err)
			}
			fp.Pauses = append(fp.Pauses, NodePause{Node: node, From: start, To: start + dur})
		case "slow":
			f := strings.Split(val, ":")
			if len(f) != 4 {
				return nil, fmt.Errorf("core: slow=%q, want node:start:duration:factor", val)
			}
			node, start, dur, err := parseWindow(f[0], f[1], f[2])
			if err != nil {
				return nil, fmt.Errorf("core: slow=%q: %v", val, err)
			}
			factor, err := strconv.ParseFloat(f[3], 64)
			if err != nil || factor < 1 {
				return nil, fmt.Errorf("core: slow=%q: factor %q, want a number ≥ 1", val, f[3])
			}
			fp.Slowdowns = append(fp.Slowdowns, NodeSlowdown{Node: node, From: start, To: start + dur, Factor: factor})
		case "rto":
			d, err := parseSimTime(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("core: rto=%q, want a positive duration", val)
			}
			fp.Net.RTO = d
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("core: retries=%q, want a positive integer", val)
			}
			fp.Net.MaxRetries = n
		default:
			return nil, fmt.Errorf("core: unknown fault spec key %q", key)
		}
	}
	if reorderSet && fp.Net.ReorderDelay == 0 {
		fp.Net.ReorderDelay = sim.Millisecond
	}
	return fp, nil
}

func parseClass(name string) (netsim.Class, error) {
	var names []string
	for _, c := range netsim.Classes() {
		if strings.EqualFold(c.String(), name) {
			return c, nil
		}
		names = append(names, strings.ToLower(c.String()))
	}
	return 0, fmt.Errorf("core: unknown message class %q (want %s)", name, strings.Join(names, ", "))
}

func parseSimTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return sim.Time(d.Nanoseconds()), nil
}

func parseWindow(nodeS, startS, durS string) (node int, start, dur sim.Time, err error) {
	node, err = strconv.Atoi(nodeS)
	if err != nil || node < 0 {
		return 0, 0, 0, fmt.Errorf("node %q, want a non-negative integer", nodeS)
	}
	start, err = parseSimTime(startS)
	if err != nil {
		return 0, 0, 0, err
	}
	dur, err = parseSimTime(durS)
	if err != nil {
		return 0, 0, 0, err
	}
	if dur == 0 {
		return 0, 0, 0, fmt.Errorf("zero duration")
	}
	return node, start, dur, nil
}
