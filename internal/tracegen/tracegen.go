// Package tracegen builds the scripted workloads behind every experiment in
// the paper: the CitySee 7-day training trace, the CitySee September trace
// with its PRR-degradation window (Fig. 6), and the two-hour 45-node
// testbed runs with node-failure / node-reboot injection in local and
// expansive spatial patterns (Fig. 5).
//
// Each generator runs the internal/wsn simulator with a deterministic fault
// schedule and returns the sink-side dataset together with the ground-truth
// event log.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/radio"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/wsn"
)

// Result bundles a generated trace with its ground truth.
type Result struct {
	// Dataset holds the reports that reached the sink.
	Dataset *trace.Dataset
	// Events is the ground-truth fault log.
	Events []wsn.Event
	// PRR is the simulator's per-epoch delivery ratio.
	PRR []trace.PRRPoint
	// TotalNodes is the sensor population (excluding the sink).
	TotalNodes int
	// Epochs is the number of epochs simulated.
	Epochs int
	// EpochInterval is the reporting period.
	EpochInterval time.Duration
}

// collect runs the network for the given number of epochs, appending
// everything to the result. A fault hook, when non-nil, runs before each
// epoch with the 1-based upcoming epoch number.
func collect(n *wsn.Network, epochs int, res *Result, hook func(epoch int) error) error {
	for i := 0; i < epochs; i++ {
		upcoming := n.Epoch() + 1
		if hook != nil {
			if err := hook(upcoming); err != nil {
				return fmt.Errorf("fault hook at epoch %d: %w", upcoming, err)
			}
		}
		er, err := n.Step()
		if err != nil {
			return fmt.Errorf("step %d: %w", upcoming, err)
		}
		for _, rep := range er.Reports {
			if err := res.Dataset.AddReport(er.Epoch, rep); err != nil {
				return fmt.Errorf("collect epoch %d: %w", er.Epoch, err)
			}
		}
		res.PRR = append(res.PRR, trace.PRRPoint{Epoch: er.Epoch, PRR: er.PRR})
		res.Epochs++
	}
	res.Events = n.Events()
	return nil
}

// CitySeeOptions parametrizes the CitySee-like generators.
type CitySeeOptions struct {
	// Seed drives topology, environment and the fault schedule.
	Seed int64
	// Days of simulated time at a 10-minute reporting interval. Defaults
	// to 7.
	Days int
	// Nodes is the sensor population. Defaults to 286 (the paper's count).
	Nodes int
}

func (o CitySeeOptions) withDefaults() CitySeeOptions {
	if o.Days == 0 {
		o.Days = 7
	}
	if o.Nodes == 0 {
		o.Nodes = 286
	}
	return o
}

const citySeeInterval = 10 * time.Minute

// epochsPerDay at the CitySee reporting interval.
const epochsPerDay = int(24 * time.Hour / citySeeInterval)

// newCitySeeNetwork builds the urban deployment: nodes scattered at
// constant density (the paper's 286 nodes over ~1.2 km), one report bundle
// per epoch. Smaller populations shrink the field so connectivity is
// preserved.
func newCitySeeNetwork(o CitySeeOptions) (*wsn.Network, error) {
	fieldSize := 1200 * math.Sqrt(float64(o.Nodes)/286)
	topo, err := wsn.RandomTopology(o.Nodes, fieldSize, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	return wsn.New(wsn.Config{
		Seed:             o.Seed,
		Topology:         topo,
		ReportInterval:   citySeeInterval,
		PacketsPerEpoch:  1,
		RandomRebootProb: 0.0004,
		Radio:            radio.Config{TxPower: -5, Seed: o.Seed + 11},
		Env:              env.Config{Seed: o.Seed + 12, FieldSize: fieldSize, InterferenceRate: 0.08},
	})
}

// backgroundFaults injects the low-rate fault mix a long-lived urban
// deployment exhibits: occasional loops, link degradations and battery
// drains on top of the simulator's spontaneous reboots and interference.
func backgroundFaults(n *wsn.Network, rng *rand.Rand, nodes int) func(epoch int) error {
	return func(epoch int) error {
		// A short-lived routing loop roughly every two days.
		if rng.Float64() < 1.0/(2*float64(epochsPerDay)) {
			a := packet.NodeID(1 + rng.Intn(nodes))
			b := packet.NodeID(1 + rng.Intn(nodes))
			if a != b {
				if err := n.InjectLoop(a, b); err != nil {
					return err
				}
			}
		}
		// Clear any loops after they have run for a while.
		if epoch%12 == 0 {
			n.ClearForcedParents()
		}
		// A permanent link degradation roughly every three days.
		if rng.Float64() < 1.0/(3*float64(epochsPerDay)) {
			a := packet.NodeID(1 + rng.Intn(nodes))
			b := packet.NodeID(1 + rng.Intn(nodes))
			if a != b {
				if err := n.DegradeLink(a, b, 10+rng.Float64()*15); err != nil {
					return err
				}
			}
		}
		// An accelerated battery drain (leading to energy depletion)
		// roughly once a week.
		if rng.Float64() < 1.0/(7*float64(epochsPerDay)) {
			if err := n.DrainBattery(packet.NodeID(1+rng.Intn(nodes)), 0.25); err != nil {
				return err
			}
		}
		return nil
	}
}

// CitySeeTraining generates the 7-day training trace of Section IV: a
// mostly healthy network with sparse background faults, producing abundant
// normal states hiding a small population of exceptions.
func CitySeeTraining(opts CitySeeOptions) (*Result, error) {
	opts = opts.withDefaults()
	n, err := newCitySeeNetwork(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dataset:       trace.NewDataset(),
		TotalNodes:    opts.Nodes,
		EpochInterval: citySeeInterval,
	}
	rng := rand.New(rand.NewSource(opts.Seed + 100))
	hook := backgroundFaults(n, rng, opts.Nodes)
	if err := collect(n, opts.Days*epochsPerDay, res, hook); err != nil {
		return nil, err
	}
	return res, nil
}

// SeptemberWindow describes the Fig. 6 scenario timing: a two-week trace
// with a concentrated failure window (the paper's Sep 20–22 PRR dip within
// a Sep 14–27 trace).
type SeptemberWindow struct {
	// StartDay and EndDay bound the degraded window in [0, Days).
	StartDay, EndDay int
}

// CitySeeSeptember generates the Fig. 6 trace: 14 days, with routing loops,
// heavy contention and node failures concentrated in days [6, 8) — the
// Sep 20–22 window of a Sep 14–27 trace.
func CitySeeSeptember(opts CitySeeOptions) (*Result, *SeptemberWindow, error) {
	opts = opts.withDefaults()
	if opts.Days == 7 {
		opts.Days = 14
	}
	// The window sits at the same relative position as Sep 20–22 within
	// Sep 14–27, scaled to however many days are simulated.
	window := &SeptemberWindow{StartDay: opts.Days * 6 / 14, EndDay: opts.Days * 8 / 14}
	if window.StartDay < 1 {
		window.StartDay = 1
	}
	if window.EndDay <= window.StartDay {
		window.EndDay = window.StartDay + 1
	}
	if window.EndDay >= opts.Days {
		window.EndDay = opts.Days
	}
	n, err := newCitySeeNetwork(opts)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		Dataset:       trace.NewDataset(),
		TotalNodes:    opts.Nodes,
		EpochInterval: citySeeInterval,
	}
	rng := rand.New(rand.NewSource(opts.Seed + 200))
	background := backgroundFaults(n, rng, opts.Nodes)
	positions := n.Positions()
	var windowFailed []packet.NodeID

	hook := func(epoch int) error {
		day := (epoch - 1) / epochsPerDay
		inWindow := day >= window.StartDay && day < window.EndDay
		if !inWindow {
			// Field engineers repair the failed nodes once the incident
			// ends, restoring PRR — the post-window recovery in Fig. 6a.
			if len(windowFailed) > 0 && day >= window.EndDay {
				n.ClearForcedParents()
				for _, id := range windowFailed {
					if err := n.RebootNode(id); err != nil {
						return err
					}
				}
				windowFailed = nil
			}
			return background(epoch)
		}
		// Degraded window: sustained, network-scale interference
		// (contention), recurring loops, and a stream of node failures —
		// the loop+contention+failure mix the paper diagnoses behind the
		// Sep 20–22 PRR dip. Injection intensity scales with the
		// population so the dip shows at every network size.
		burstCount := 1 + opts.Nodes/60
		if (epoch-1)%3 == 0 {
			for i := 0; i < burstCount; i++ {
				center := positions[1+rng.Intn(opts.Nodes)]
				n.InjectInterference(center, 2*time.Hour)
			}
		}
		if (epoch-1)%12 == 0 {
			loops := 1 + opts.Nodes/100
			for i := 0; i < loops; i++ {
				a := packet.NodeID(1 + rng.Intn(opts.Nodes))
				b := packet.NodeID(1 + rng.Intn(opts.Nodes))
				c := packet.NodeID(1 + rng.Intn(opts.Nodes))
				if a != b && b != c && a != c {
					if err := n.InjectLoop(a, b, c); err != nil {
						return err
					}
				}
			}
		}
		if (epoch-1)%36 == 0 {
			n.ClearForcedParents()
		}
		if (epoch-1)%8 == 0 {
			victim := packet.NodeID(1 + rng.Intn(opts.Nodes))
			if err := n.FailNode(victim); err != nil {
				return err
			}
			windowFailed = append(windowFailed, victim)
		}
		return nil
	}
	if err := collect(n, opts.Days*epochsPerDay, res, hook); err != nil {
		return nil, nil, err
	}
	// Loops injected near the window end may still be active.
	n.ClearForcedParents()
	return res, window, nil
}
