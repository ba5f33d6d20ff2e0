// Package metricspec defines the 43 performance-correlated metrics VN2
// injects into every sensor node (M = 43 in the paper's CitySee deployment),
// the packet each metric travels in (C1/C2/C3), and the Table I catalog of
// hazard events correlated with them.
//
// The layout follows Section III-C of the paper:
//
//   - C1 carries sensor data (temperature, humidity, light, voltage) and
//     routing information (path-ETX, path length), plus node-level gauges.
//   - C2 carries the routing table with up to 10 neighbors: per-neighbor
//     RSSI and link-ETX estimates (20 metrics).
//   - C3 carries the protocol counters (parent change, transmit, receive,
//     overflow drop, loop, NOACK retransmit, duplicate, drop, MAC backoff,
//     and friends).
package metricspec

import (
	"fmt"
	"strconv"
)

// MetricCount is M, the number of injected metrics.
const MetricCount = 43

// MaxNeighbors is the routing-table capacity carried in a C2 packet.
const MaxNeighbors = 10

// Packet identifies which of the three periodic report packets carries a
// metric.
type Packet int

// The three packet classes from Section III-C.
const (
	PacketC1 Packet = iota + 1
	PacketC2
	PacketC3
)

// String implements fmt.Stringer.
func (p Packet) String() string {
	switch p {
	case PacketC1:
		return "C1"
	case PacketC2:
		return "C2"
	case PacketC3:
		return "C3"
	default:
		return fmt.Sprintf("Packet(%d)", int(p))
	}
}

// Kind distinguishes instantaneous readings from monotone counters. VN2
// diffs successive reports either way; the kind matters for simulation and
// for interpreting root-cause vectors.
type Kind int

const (
	// Gauge is an instantaneous reading (temperature, RSSI, voltage).
	Gauge Kind = iota + 1
	// Counter accumulates monotonically between reboots.
	Counter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer is the protocol layer a metric monitors.
type Layer int

// Layers, bottom-up.
const (
	Physical Layer = iota + 1
	Link
	Network
	Application
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case Physical:
		return "physical"
	case Link:
		return "link"
	case Network:
		return "network"
	case Application:
		return "application"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// ID indexes a metric within the 43-element state vector.
type ID int

// C1 metrics: sensed environment plus node/routing gauges.
const (
	Temperature ID = iota
	Humidity
	Light
	Voltage
	PathETX
	PathLength
	RadioOnTime
	NeighborNum
	// C2 metrics: per-neighbor link state, NeighborRSSI(k) and
	// NeighborETX(k) for k in [0, MaxNeighbors).
	firstNeighborRssi
)

// C3 metrics: protocol counters. Declared after the C2 block, whose IDs are
// computed (firstNeighborRssi .. firstNeighborRssi+19).
const (
	ParentChangeCounter ID = firstNeighborRssi + 2*MaxNeighbors + iota
	TransmitCounter
	ReceiveCounter
	SelfTransmitCounter
	ForwardCounter
	OverflowDropCounter
	LoopCounter
	NOACKRetransmitCounter
	DuplicateCounter
	DropPacketCounter
	MacBackoffCounter
	NoParentCounter
	BeaconCounter
	QueuePeak
	Uptime
)

// NeighborRSSI returns the metric ID for the RSSI of routing-table slot k.
func NeighborRSSI(k int) ID {
	if k < 0 || k >= MaxNeighbors {
		panic(fmt.Sprintf("metricspec: neighbor slot %d out of [0,%d)", k, MaxNeighbors))
	}
	return firstNeighborRssi + ID(k)
}

// NeighborETX returns the metric ID for the link-ETX of routing-table slot k.
func NeighborETX(k int) ID {
	if k < 0 || k >= MaxNeighbors {
		panic(fmt.Sprintf("metricspec: neighbor slot %d out of [0,%d)", k, MaxNeighbors))
	}
	return firstNeighborRssi + MaxNeighbors + ID(k)
}

// Spec describes one injected metric.
type Spec struct {
	ID     ID
	Name   string // canonical name, e.g. "NOACK_retransmit_counter"
	Short  string // compact label for figure axes, e.g. "NARC"
	Packet Packet
	Kind   Kind
	Layer  Layer
}

// specs is the full ordered registry; index equals ID.
var specs = buildSpecs()

func buildSpecs() []Spec {
	s := make([]Spec, 0, MetricCount)
	add := func(id ID, name, short string, p Packet, k Kind, l Layer) {
		if int(id) != len(s) {
			panic(fmt.Sprintf("metricspec: registry order broken at %s: id %d, position %d", name, id, len(s)))
		}
		s = append(s, Spec{ID: id, Name: name, Short: short, Packet: p, Kind: k, Layer: l})
	}
	add(Temperature, "Temperature", "TMP", PacketC1, Gauge, Physical)
	add(Humidity, "Humidity", "HUM", PacketC1, Gauge, Physical)
	add(Light, "Light", "LGT", PacketC1, Gauge, Physical)
	add(Voltage, "Voltage", "VOL", PacketC1, Gauge, Physical)
	add(PathETX, "Path_ETX", "PETX", PacketC1, Gauge, Network)
	add(PathLength, "Path_length", "PLEN", PacketC1, Gauge, Network)
	add(RadioOnTime, "Radio_on_time", "ROT", PacketC1, Counter, Physical)
	add(NeighborNum, "NeighborNum", "NBR", PacketC1, Gauge, Network)
	for k := 0; k < MaxNeighbors; k++ {
		add(NeighborRSSI(k), "NeighborRssi"+strconv.Itoa(k+1), "RSSI"+strconv.Itoa(k+1), PacketC2, Gauge, Link)
	}
	for k := 0; k < MaxNeighbors; k++ {
		add(NeighborETX(k), "NeighborEtx"+strconv.Itoa(k+1), "ETX"+strconv.Itoa(k+1), PacketC2, Gauge, Link)
	}
	add(ParentChangeCounter, "Parent_change_counter", "PCC", PacketC3, Counter, Network)
	add(TransmitCounter, "Transmit_counter", "TC", PacketC3, Counter, Link)
	add(ReceiveCounter, "Receive_counter", "RC", PacketC3, Counter, Link)
	add(SelfTransmitCounter, "Self_transmit_counter", "STC", PacketC3, Counter, Application)
	add(ForwardCounter, "Forward_counter", "FC", PacketC3, Counter, Network)
	add(OverflowDropCounter, "Overflow_drop_counter", "ODC", PacketC3, Counter, Network)
	add(LoopCounter, "Loop_counter", "LC", PacketC3, Counter, Network)
	add(NOACKRetransmitCounter, "NOACK_retransmit_counter", "NARC", PacketC3, Counter, Link)
	add(DuplicateCounter, "Duplicate_counter", "DC", PacketC3, Counter, Network)
	add(DropPacketCounter, "Drop_packet_counter", "DPC", PacketC3, Counter, Link)
	add(MacBackoffCounter, "MacI_backoff_counter", "MIBOC", PacketC3, Counter, Link)
	add(NoParentCounter, "No_parent_counter", "NPC", PacketC3, Counter, Network)
	add(BeaconCounter, "Beacon_counter", "BC", PacketC3, Counter, Network)
	add(QueuePeak, "Queue_peak", "QP", PacketC3, Gauge, Network)
	add(Uptime, "Uptime", "UP", PacketC3, Counter, Application)
	if len(s) != MetricCount {
		panic(fmt.Sprintf("metricspec: registry has %d metrics, want %d", len(s), MetricCount))
	}
	return s
}

// All returns the full ordered metric registry. The returned slice is a
// copy; callers may mutate it freely.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Lookup returns the spec for id.
func Lookup(id ID) (Spec, error) {
	if int(id) < 0 || int(id) >= len(specs) {
		return Spec{}, fmt.Errorf("metricspec: id %d out of range [0,%d)", id, len(specs))
	}
	return specs[id], nil
}

// ByName returns the spec with the given canonical name.
func ByName(name string) (Spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("metricspec: unknown metric %q", name)
}

// Names returns the 43 canonical metric names in ID order.
func Names() []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}
