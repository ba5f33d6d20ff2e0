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

	// contenders[i] lists the nodes within the radio configuration's
	// maximum possible range of i — the neighborhood that defines channel
	// contention. Built once from static positions via the spatial grid.
	contenders [][]int
	// candidates[i] is the subset of contenders[i] whose link with i can
	// ever deliver a frame (radio.Medium.InRange); the beacon phase
	// iterates only these. Pruning is exact: an out-of-range link has zero
	// reception probability under the bounded fading model, and per-link
	// draws are keyed, so skipping it moves no other link's draws
	// (TestLinkPruneExact). Refreshed when DegradeLink shifts a budget.
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
	return n, nil
}

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
