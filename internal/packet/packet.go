// Package packet defines the three periodic report packets every VN2 node
// sends to the sink (Section III-C of the paper) and the sink-side assembly
// of the 43-element metric vector P from them.
//
//   - C1: sensor data (temperature, humidity, light, voltage) and routing
//     information (path-ETX, path length / node IDs along the path).
//   - C2: the routing table, up to 10 entries of (neighbor ID, RSSI,
//     link-ETX, path-ETX).
//   - C3: protocol counters.
//
// A compact big-endian binary wire format is provided so that testbed and
// simulator traffic can be byte-serialized exactly like a real deployment.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

// NodeID identifies a sensor node. The sink is node 0 by convention.
type NodeID uint16

// SinkID is the collection root.
const SinkID NodeID = 0

// Errors returned by decoding and assembly.
var (
	// ErrTruncated reports a wire payload shorter than its header demands.
	ErrTruncated = errors.New("packet: truncated payload")
	// ErrBadType reports an unknown packet type byte.
	ErrBadType = errors.New("packet: unknown packet type")
	// ErrTooManyNeighbors reports a C2 packet exceeding the table capacity.
	ErrTooManyNeighbors = errors.New("packet: routing table exceeds capacity")
)

// Type tags the wire format.
type Type byte

// Wire type tags.
const (
	TypeC1 Type = 1
	TypeC2 Type = 2
	TypeC3 Type = 3
)

// C1 is the sensor-data and routing-information report.
type C1 struct {
	Node        NodeID
	Seq         uint32
	Temperature float64 // °C
	Humidity    float64 // %RH
	Light       float64 // lux
	Voltage     float64 // volts
	PathETX     float64 // expected transmissions source→sink
	PathLength  uint8   // hops on the collection path
	RadioOnTime float64 // cumulative seconds the radio was on
	NeighborNum uint8   // routing-table occupancy
}

// NeighborEntry is one routing-table row in a C2 packet.
type NeighborEntry struct {
	Neighbor NodeID
	RSSI     float64 // dBm
	LinkETX  float64 // expected transmissions on this link
	PathETX  float64 // neighbor's advertised path-ETX
}

// C2 is the routing-table report.
type C2 struct {
	Node    NodeID
	Seq     uint32
	Entries []NeighborEntry // at most metricspec.MaxNeighbors
}

// C3 is the protocol-counter report.
type C3 struct {
	Node            NodeID
	Seq             uint32
	ParentChange    uint32
	Transmit        uint32
	Receive         uint32
	SelfTransmit    uint32
	Forward         uint32
	OverflowDrop    uint32
	Loop            uint32
	NOACKRetransmit uint32
	Duplicate       uint32
	DropPacket      uint32
	MacBackoff      uint32
	NoParent        uint32
	Beacon          uint32
	QueuePeak       uint8
	Uptime          uint32 // seconds since boot; resets on reboot
}

// Report bundles one reporting epoch's three packets from a node.
type Report struct {
	C1 C1
	C2 C2
	C3 C3
}

// Vector assembles the 43-element metric vector P from the three packets,
// in metricspec ID order. Missing routing-table slots read as zero, matching
// a real sink that zero-fills absent neighbors.
func (r *Report) Vector() ([]float64, error) {
	v := make([]float64, metricspec.MetricCount)
	if err := r.VectorInto(v); err != nil {
		return nil, err
	}
	return v, nil
}

// VectorInto assembles the metric vector into v (length MetricCount) without
// allocating — the frame decoder's arena-backed variant of Vector.
func (r *Report) VectorInto(v []float64) error {
	if len(r.C2.Entries) > metricspec.MaxNeighbors {
		return fmt.Errorf("%w: %d entries", ErrTooManyNeighbors, len(r.C2.Entries))
	}
	if len(v) != metricspec.MetricCount {
		return fmt.Errorf("packet: vector length %d, want %d", len(v), metricspec.MetricCount)
	}
	for k := range v {
		v[k] = 0
	}
	v[metricspec.Temperature] = r.C1.Temperature
	v[metricspec.Humidity] = r.C1.Humidity
	v[metricspec.Light] = r.C1.Light
	v[metricspec.Voltage] = r.C1.Voltage
	v[metricspec.PathETX] = r.C1.PathETX
	v[metricspec.PathLength] = float64(r.C1.PathLength)
	v[metricspec.RadioOnTime] = r.C1.RadioOnTime
	v[metricspec.NeighborNum] = float64(r.C1.NeighborNum)
	for k, e := range r.C2.Entries {
		v[metricspec.NeighborRSSI(k)] = e.RSSI
		v[metricspec.NeighborETX(k)] = e.LinkETX
	}
	v[metricspec.ParentChangeCounter] = float64(r.C3.ParentChange)
	v[metricspec.TransmitCounter] = float64(r.C3.Transmit)
	v[metricspec.ReceiveCounter] = float64(r.C3.Receive)
	v[metricspec.SelfTransmitCounter] = float64(r.C3.SelfTransmit)
	v[metricspec.ForwardCounter] = float64(r.C3.Forward)
	v[metricspec.OverflowDropCounter] = float64(r.C3.OverflowDrop)
	v[metricspec.LoopCounter] = float64(r.C3.Loop)
	v[metricspec.NOACKRetransmitCounter] = float64(r.C3.NOACKRetransmit)
	v[metricspec.DuplicateCounter] = float64(r.C3.Duplicate)
	v[metricspec.DropPacketCounter] = float64(r.C3.DropPacket)
	v[metricspec.MacBackoffCounter] = float64(r.C3.MacBackoff)
	v[metricspec.NoParentCounter] = float64(r.C3.NoParent)
	v[metricspec.BeaconCounter] = float64(r.C3.Beacon)
	v[metricspec.QueuePeak] = float64(r.C3.QueuePeak)
	v[metricspec.Uptime] = float64(r.C3.Uptime)
	return nil
}

// --- wire format -----------------------------------------------------------
//
// Every packet starts with a 7-byte header:
//
//	byte 0    type tag
//	bytes 1-2 node id (big endian)
//	bytes 3-6 sequence number (big endian)
//
// Floating-point fields are fixed-point int32 scaled by 1000 (milli-units),
// matching the narrow fields of a real mote payload.

const headerLen = 7

const fixedScale = 1000

// Fixed-point saturation bounds: the widest magnitudes an int32 milli-value
// can carry. Values outside ±2147483.647 clamp to these on the wire — the
// alternative, converting an out-of-range float64 to int32, is
// implementation-specific in Go and silently corrupted cumulative counters
// such as RadioOnTime (~25 days of radio-on seconds crosses the boundary).
// NaN encodes as zero; a mote cannot report NaN and the decode side must
// never see one.
const (
	FixedMax = math.MaxInt32 / float64(fixedScale) // +2147483.647
	FixedMin = math.MinInt32 / float64(fixedScale) // −2147483.648
)

func putFixed(b []byte, v float64) {
	f := v*fixedScale + copysignHalf(v)
	var u int32
	switch {
	case f >= math.MaxInt32:
		u = math.MaxInt32
	case f <= math.MinInt32:
		u = math.MinInt32
	case math.IsNaN(f):
		u = 0
	default:
		u = int32(f)
	}
	binary.BigEndian.PutUint32(b, uint32(u))
}

func copysignHalf(v float64) float64 {
	if v < 0 {
		return -0.5
	}
	return 0.5
}

func getFixed(b []byte) float64 {
	return float64(int32(binary.BigEndian.Uint32(b))) / fixedScale
}

func putHeader(b []byte, t Type, node NodeID, seq uint32) {
	b[0] = byte(t)
	binary.BigEndian.PutUint16(b[1:], uint16(node))
	binary.BigEndian.PutUint32(b[3:], seq)
}

// MarshalBinary encodes a C1 packet.
func (p *C1) MarshalBinary() ([]byte, error) {
	b := make([]byte, headerLen+4*6+2)
	putHeader(b, TypeC1, p.Node, p.Seq)
	off := headerLen
	for _, v := range []float64{p.Temperature, p.Humidity, p.Light, p.Voltage, p.PathETX, p.RadioOnTime} {
		putFixed(b[off:], v)
		off += 4
	}
	b[off] = p.PathLength
	b[off+1] = p.NeighborNum
	return b, nil
}

// UnmarshalBinary decodes a C1 packet.
func (p *C1) UnmarshalBinary(b []byte) error {
	if len(b) < headerLen+4*6+2 {
		return fmt.Errorf("%w: C1 payload %d bytes", ErrTruncated, len(b))
	}
	if Type(b[0]) != TypeC1 {
		return fmt.Errorf("%w: %d, want C1", ErrBadType, b[0])
	}
	p.Node = NodeID(binary.BigEndian.Uint16(b[1:]))
	p.Seq = binary.BigEndian.Uint32(b[3:])
	off := headerLen
	dst := []*float64{&p.Temperature, &p.Humidity, &p.Light, &p.Voltage, &p.PathETX, &p.RadioOnTime}
	for _, d := range dst {
		*d = getFixed(b[off:])
		off += 4
	}
	p.PathLength = b[off]
	p.NeighborNum = b[off+1]
	return nil
}

// MarshalBinary encodes a C2 packet.
func (p *C2) MarshalBinary() ([]byte, error) {
	if len(p.Entries) > metricspec.MaxNeighbors {
		return nil, fmt.Errorf("%w: %d entries", ErrTooManyNeighbors, len(p.Entries))
	}
	b := make([]byte, headerLen+1+len(p.Entries)*(2+4*3))
	putHeader(b, TypeC2, p.Node, p.Seq)
	b[headerLen] = byte(len(p.Entries))
	off := headerLen + 1
	for _, e := range p.Entries {
		binary.BigEndian.PutUint16(b[off:], uint16(e.Neighbor))
		putFixed(b[off+2:], e.RSSI)
		putFixed(b[off+6:], e.LinkETX)
		putFixed(b[off+10:], e.PathETX)
		off += 14
	}
	return b, nil
}

// UnmarshalBinary decodes a C2 packet.
func (p *C2) UnmarshalBinary(b []byte) error {
	if len(b) < headerLen+1 {
		return fmt.Errorf("%w: C2 payload %d bytes", ErrTruncated, len(b))
	}
	if Type(b[0]) != TypeC2 {
		return fmt.Errorf("%w: %d, want C2", ErrBadType, b[0])
	}
	p.Node = NodeID(binary.BigEndian.Uint16(b[1:]))
	p.Seq = binary.BigEndian.Uint32(b[3:])
	n := int(b[headerLen])
	if n > metricspec.MaxNeighbors {
		return fmt.Errorf("%w: %d entries", ErrTooManyNeighbors, n)
	}
	if len(b) < headerLen+1+n*14 {
		return fmt.Errorf("%w: C2 payload %d bytes for %d entries", ErrTruncated, len(b), n)
	}
	// Reuse the caller's Entries capacity: the sink decodes C2 packets in a
	// tight loop and must not allocate a fresh table per report.
	if cap(p.Entries) >= n {
		p.Entries = p.Entries[:n]
	} else {
		p.Entries = make([]NeighborEntry, n, metricspec.MaxNeighbors)
	}
	off := headerLen + 1
	for i := range p.Entries {
		p.Entries[i] = NeighborEntry{
			Neighbor: NodeID(binary.BigEndian.Uint16(b[off:])),
			RSSI:     getFixed(b[off+2:]),
			LinkETX:  getFixed(b[off+6:]),
			PathETX:  getFixed(b[off+10:]),
		}
		off += 14
	}
	return nil
}

// MarshalBinary encodes a C3 packet.
func (p *C3) MarshalBinary() ([]byte, error) {
	b := make([]byte, headerLen+4*14+1)
	putHeader(b, TypeC3, p.Node, p.Seq)
	off := headerLen
	for _, v := range []uint32{
		p.ParentChange, p.Transmit, p.Receive, p.SelfTransmit, p.Forward,
		p.OverflowDrop, p.Loop, p.NOACKRetransmit, p.Duplicate, p.DropPacket,
		p.MacBackoff, p.NoParent, p.Beacon, p.Uptime,
	} {
		binary.BigEndian.PutUint32(b[off:], v)
		off += 4
	}
	b[off] = p.QueuePeak
	return b, nil
}

// UnmarshalBinary decodes a C3 packet.
func (p *C3) UnmarshalBinary(b []byte) error {
	if len(b) < headerLen+4*14+1 {
		return fmt.Errorf("%w: C3 payload %d bytes", ErrTruncated, len(b))
	}
	if Type(b[0]) != TypeC3 {
		return fmt.Errorf("%w: %d, want C3", ErrBadType, b[0])
	}
	p.Node = NodeID(binary.BigEndian.Uint16(b[1:]))
	p.Seq = binary.BigEndian.Uint32(b[3:])
	off := headerLen
	dst := []*uint32{
		&p.ParentChange, &p.Transmit, &p.Receive, &p.SelfTransmit, &p.Forward,
		&p.OverflowDrop, &p.Loop, &p.NOACKRetransmit, &p.Duplicate, &p.DropPacket,
		&p.MacBackoff, &p.NoParent, &p.Beacon, &p.Uptime,
	}
	for _, d := range dst {
		*d = binary.BigEndian.Uint32(b[off:])
		off += 4
	}
	p.QueuePeak = b[off]
	return nil
}
