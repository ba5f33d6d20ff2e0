// Package wsn is an epoch-driven simulator of a CTP-based sensor network:
// the substrate standing in for the paper's TelosB testbed and the CitySee
// deployment. Every reporting epoch it advances the environment, runs
// beacon exchange and parent selection, generates and forwards data traffic
// hop-by-hop over the lossy MAC, and assembles the C1/C2/C3 reports that
// reach the sink.
//
// All the VN2 metrics emerge from mechanism, not from scripted numbers:
// NOACK retransmissions come from lost frames, duplicates from lost ACKs,
// overflow drops from bounded queues, loop counters from actual routing
// cycles, and parent changes from the ETX estimator reacting to the channel.
//
// The simulator exposes a fault-injection API (node failure, reboot, link
// degradation, interference, forced routing loops) and records every
// injected event with its epoch as ground truth for evaluation.
package wsn

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/par"
	"github.com/wsn-tools/vn2/internal/radio"
)

// Errors returned by the simulator API.
var (
	// ErrNoNodes reports a configuration without any sensor nodes.
	ErrNoNodes = errors.New("wsn: topology needs a sink and at least one node")
	// ErrUnknownNode reports an operation on a node ID outside the topology.
	ErrUnknownNode = errors.New("wsn: unknown node")
	// ErrSinkImmutable reports fault injection aimed at the sink.
	ErrSinkImmutable = errors.New("wsn: the sink cannot fail or reboot")
)

// Config parametrizes a simulation.
type Config struct {
	// Seed drives all randomness in the simulation.
	Seed int64
	// Topology lists node positions; index 0 is the sink. Required.
	Topology []env.Position
	// ReportInterval is the epoch length (10 min in CitySee, 3 min on the
	// testbed). Defaults to 10 minutes.
	ReportInterval time.Duration
	// QueueCapacity bounds each node's forwarding queue. Defaults to 12.
	QueueCapacity int
	// PacketsPerEpoch is the number of self-generated data packets per node
	// per epoch (the C1/C2/C3 report bundle travels as this traffic).
	// Defaults to 3.
	PacketsPerEpoch int
	// MaxForwardRounds bounds the number of channel passes per epoch; in
	// each pass every node may transmit one packet. Zero sizes it
	// automatically from the topology and traffic volume.
	MaxForwardRounds int
	// NeighborStaleEpochs evicts routing entries unheard for this many
	// epochs. Defaults to 4.
	NeighborStaleEpochs int
	// InitialVoltage is the battery voltage of a fresh node. Defaults to 3.0.
	InitialVoltage float64
	// VoltageFailThreshold stops a node when its voltage drops below it
	// (2.8 V in Table I). Defaults to 2.8.
	VoltageFailThreshold float64
	// BaseDrainPerEpoch is the idle voltage drain. Defaults to 1e-5 V.
	BaseDrainPerEpoch float64
	// TxDrainPerPacket is extra drain per transmission attempt. Defaults to
	// 2e-6 V.
	TxDrainPerPacket float64
	// RandomRebootProb is the per-node, per-epoch probability of a
	// spontaneous software reboot. Defaults to 0 (scenarios inject their
	// own).
	RandomRebootProb float64
	// ClockSkewPerDegree models the Table I temperature hazard: a node's
	// hardware clock drifts with temperature, changing its sending rate.
	// The per-epoch probability of generating one extra packet (fast
	// clock) or suppressing one (slow clock) is this value times the
	// node's temperature deviation from 25 °C in degrees. Defaults to 0.
	ClockSkewPerDegree float64
	// Radio configures the PHY/MAC; Radio.Seed is derived from Seed when 0.
	Radio radio.Config
	// Env configures the environment; Env.Seed is derived from Seed when 0.
	Env env.Config
	// Workers bounds the goroutines used for the parallel phases of each
	// epoch (beacon reception, traffic transmission, routing-table
	// maintenance, energy accounting): 0 keeps them sequential, ≥1 fans
	// out, negative uses GOMAXPROCS. All packet-level randomness is
	// counter-based per link, so simulations are bit-identical for any
	// Workers value.
	Workers int
	// DisableLinkPrune makes the beacon phase iterate every link in the
	// contention neighborhood instead of only links that can ever deliver
	// a frame. Pruning is exact — out-of-range links have zero reception
	// probability under the bounded fading model and per-link draws are
	// independent — so results are identical either way; the flag exists
	// to assert exactly that in tests.
	DisableLinkPrune bool
}

func (c Config) withDefaults() Config {
	if c.ReportInterval == 0 {
		c.ReportInterval = 10 * time.Minute
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 12
	}
	if c.PacketsPerEpoch == 0 {
		c.PacketsPerEpoch = 3
	}
	if c.NeighborStaleEpochs == 0 {
		c.NeighborStaleEpochs = 4
	}
	if c.InitialVoltage == 0 {
		c.InitialVoltage = 3.0
	}
	if c.VoltageFailThreshold == 0 {
		c.VoltageFailThreshold = 2.8
	}
	if c.BaseDrainPerEpoch == 0 {
		c.BaseDrainPerEpoch = 1e-5
	}
	if c.TxDrainPerPacket == 0 {
		c.TxDrainPerPacket = 2e-6
	}
	if c.Radio.Seed == 0 {
		c.Radio.Seed = c.Seed + 1
	}
	if c.Env.Seed == 0 {
		c.Env.Seed = c.Seed + 2
	}
	return c
}

// Network is the simulator state.
type Network struct {
	cfg    Config
	rng    *rand.Rand
	field  *env.Field
	medium *radio.Medium
	nodes  []*node // index == NodeID; nodes[0] is the sink
	epoch  int
	events []Event
	pool   *par.Pool // shared worker pool for the parallel phases

	// Prebuilt phase kernels, constructed once in New and fed to the pool
	// every epoch. A closure built at the call site is itself a heap
	// allocation; with ~300 transmit passes per CitySee epoch that one
	// allocation per pass dominated the steady-state profile. Prebuilding
	// makes every pool run in Step allocation-free.
	noiseFn    func(start, end int)
	beaconFn   func(start, end int)
	routeFn    func(start, end int)
	transmitFn func(start, end int)
	energyFn   func(start, end int)

	// contenders[i] lists the nodes within the radio configuration's
	// maximum possible range of i — the neighborhood that defines channel
	// contention. Built once from static positions via the spatial grid.
	contenders [][]int
	// candidates[i] is the subset of contenders[i] whose link with i can
	// ever deliver a frame (radio.Medium.InRange); the beacon phase
	// iterates only these. Refreshed when DegradeLink shifts a budget.
	candidates [][]int

	// perEpochTx tracks each node's transmission attempts last epoch to
	// derive local contention.
	perEpochTx []int

	// Per-epoch scratch, reused so steady-state stepping does not allocate.
	noise          []float64 // per-node noise floor, sampled once per epoch
	contention     []float64
	adv            []float64 // beacon advertisement snapshot
	epochDelivered []bool    // origins whose traffic reached the sink
	schedule       [][]pendingInject
	active         []int // nodes with queued traffic, insertion order
	inActive       []bool
	intents        []delivery
}

// New constructs a simulator. Topology[0] is the sink.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Topology) < 2 {
		return nil, ErrNoNodes
	}
	field := env.New(cfg.Env)
	nn := len(cfg.Topology)
	n := &Network{
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		field:          field,
		medium:         radio.NewMedium(cfg.Radio),
		perEpochTx:     make([]int, nn),
		pool:           par.NewPool(cfg.Workers),
		noise:          make([]float64, nn),
		contention:     make([]float64, nn),
		adv:            make([]float64, nn),
		epochDelivered: make([]bool, nn),
		inActive:       make([]bool, nn),
		intents:        make([]delivery, 0, nn),
	}
	n.nodes = make([]*node, nn)
	for i, pos := range cfg.Topology {
		n.nodes[i] = newNode(packet.NodeID(i), pos, cfg)
	}
	n.medium.SetTopology(cfg.Topology)
	n.buildLinks()
	n.buildKernels()
	return n, nil
}

// buildKernels constructs the phase closures the pool executes each epoch.
// Each captures only n; per-epoch inputs (noise floors, the advertisement
// snapshot, the active rotation) are Network fields written before the
// corresponding run, so the same closure values are reused for the life of
// the simulation.
func (n *Network) buildKernels() {
	n.noiseFn = func(start, end int) {
		for i := start; i < end; i++ {
			n.noise[i] = n.field.NoiseFloor(n.nodes[i].pos)
		}
	}
	n.beaconFn = func(start, end int) {
		links := n.beaconLinks()
		for j := 1 + start; j < 1+end; j++ {
			rx := n.nodes[j]
			if !rx.up {
				continue
			}
			noise := n.noise[j]
			// Link lists are symmetric (path loss, shadowing and injected
			// degradation all are), so j's outbound list is also its
			// inbound sender list.
			for _, i := range links[j] {
				tx := n.nodes[i]
				if !tx.up {
					continue
				}
				rssi, heard := n.medium.Beacon(i, j, noise)
				if heard {
					// Hearing our own beacon is impossible by construction
					// (lists exclude self), so the error is unreachable.
					_ = rx.table.HearBeacon(tx.id, rssi, n.adv[i])
				}
			}
		}
	}
	n.routeFn = func(start, end int) {
		for i := 1 + start; i < 1+end; i++ {
			nd := n.nodes[i]
			if !nd.up {
				continue
			}
			nd.table.Tick(n.cfg.NeighborStaleEpochs)
			nd.table.SelectParent()
		}
	}
	n.transmitFn = func(start, end int) {
		for k := start; k < end; k++ {
			n.intents[k] = n.transmitOne(n.nodes[n.active[k]])
		}
	}
	n.energyFn = func(start, end int) {
		const (
			txSecondsPerAttempt = 0.004
			idleDutyCycle       = 0.02
		)
		for i := start; i < end; i++ {
			nd := n.nodes[i]
			if nd.up && !nd.isSink() {
				nd.voltage -= n.cfg.BaseDrainPerEpoch + n.cfg.TxDrainPerPacket*float64(nd.epochTx)
				nd.radioOn += float64(nd.epochTx)*txSecondsPerAttempt + idleDutyCycle*n.cfg.ReportInterval.Seconds()
			}
			n.perEpochTx[i] = nd.epochTx
			nd.epochTx = 0
		}
	}
}

// Close releases the pool's background goroutines. The network stays usable
// afterwards — phases simply run inline sequentially, which is bit-identical
// by the determinism contract — so Close is goroutine hygiene, not a
// lifecycle requirement.
func (n *Network) Close() { n.pool.Close() }

// buildLinks precomputes the per-node neighbor lists via a spatial grid:
// contenders by the configuration's exact maximum radio range, candidates
// by the per-link InRange predicate. O(n·deg) instead of the all-pairs scan.
func (n *Network) buildLinks() {
	maxRange := n.cfg.Radio.MaxRange()
	g := newGrid(n.cfg.Topology, maxRange)
	n.contenders = make([][]int, len(n.nodes))
	n.candidates = make([][]int, len(n.nodes))
	for i := range n.nodes {
		n.contenders[i] = g.neighbors(n.cfg.Topology, i, maxRange, nil)
		n.refreshCandidates(i)
	}
}

// refreshCandidates refilters node i's beacon-phase link list against the
// medium's current link budgets. Called at build time and after fault
// injection (DegradeLink) moves a budget across the sensitivity bound.
func (n *Network) refreshCandidates(i int) {
	out := n.candidates[i][:0]
	for _, j := range n.contenders[i] {
		if n.medium.InRange(i, j) {
			out = append(out, j)
		}
	}
	n.candidates[i] = out
}

// beaconLinks returns the link lists the beacon phase iterates: the pruned
// candidates normally, the full contention neighborhood when pruning is
// disabled. Results are identical either way — the extra links cannot
// deliver — which TestLinkPruneExact asserts.
func (n *Network) beaconLinks() [][]int {
	if n.cfg.DisableLinkPrune {
		return n.contenders
	}
	return n.candidates
}

// NumNodes returns the topology size including the sink.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Epoch returns the number of completed epochs.
func (n *Network) Epoch() int { return n.epoch }

// Now returns the simulation clock.
func (n *Network) Now() time.Duration { return n.field.Now() }

// Positions returns a copy of the node positions.
func (n *Network) Positions() []env.Position {
	out := make([]env.Position, len(n.nodes))
	for i, nd := range n.nodes {
		out[i] = nd.pos
	}
	return out
}

// NodeUp reports whether a node is powered and operating.
func (n *Network) NodeUp(id packet.NodeID) (bool, error) {
	nd, err := n.node(id)
	if err != nil {
		return false, err
	}
	return nd.up, nil
}

// Voltage returns a node's current battery voltage.
func (n *Network) Voltage(id packet.NodeID) (float64, error) {
	nd, err := n.node(id)
	if err != nil {
		return 0, err
	}
	return nd.voltage, nil
}

// Parent returns a node's current CTP parent.
func (n *Network) Parent(id packet.NodeID) (packet.NodeID, error) {
	nd, err := n.node(id)
	if err != nil {
		return 0, err
	}
	if nd.forcedParent != nil {
		return *nd.forcedParent, nil
	}
	return nd.table.Parent(), nil
}

func (n *Network) node(id packet.NodeID) (*node, error) {
	if int(id) >= len(n.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n.nodes[id], nil
}
