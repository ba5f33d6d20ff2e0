package wsn

import (
	"time"

	"github.com/wsn-tools/vn2/internal/ctp"
	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/packet"
)

// dataPacket is an in-flight data unit traveling hop-by-hop to the sink.
type dataPacket struct {
	origin packet.NodeID
	// incarnation distinguishes packets from different boots of the same
	// node: sequence numbers restart at zero after a reboot, and without
	// the incarnation the sink's duplicate cache would silently absorb the
	// entire post-reboot stream.
	incarnation uint8
	seq         uint32
	ttl         int
	// genEpoch is the epoch the packet was generated in; not part of the
	// identity key. The sink uses it to attribute a delivery to the epoch
	// whose PRR it counts toward.
	genEpoch int
}

// key identifies a packet for duplicate suppression and loop detection.
func (p dataPacket) key() uint64 {
	return uint64(p.incarnation)<<48 | uint64(p.origin)<<32 | uint64(p.seq)
}

// counters mirrors the C3 payload as native integers.
type counters struct {
	parentChange    uint32
	transmit        uint32
	receive         uint32
	selfTransmit    uint32
	forward         uint32
	overflowDrop    uint32
	loop            uint32
	noackRetransmit uint32
	duplicate       uint32
	dropPacket      uint32
	macBackoff      uint32
	noParent        uint32
	beacon          uint32
	queuePeak       uint8
}

// node is one simulated mote.
type node struct {
	id  packet.NodeID
	pos env.Position

	up      bool
	voltage float64
	uptime  time.Duration
	radioOn float64 // cumulative seconds

	table *ctp.Table
	// queue holds the forwarding backlog; qhead indexes its first live
	// element so pops don't bleed slice capacity (a [1:] reslice would make
	// every subsequent append reallocate).
	queue []dataPacket
	qhead int
	seq   uint32
	// incarnation counts boots; folded into every packet key.
	incarnation uint8

	ctr counters

	// seen caches recently handled packet keys for duplicate suppression
	// and loop detection (a node re-receiving a packet it forwarded).
	seen seenCache

	// forcedParent overrides CTP parent selection (loop injection).
	forcedParent *packet.NodeID

	// epochTx counts transmission attempts in the current epoch for
	// contention and battery accounting.
	epochTx int
}

// seenCache remembers the flags of the last seenCacheSize distinct packet
// keys, evicting first-in first-out: an open-addressed table (linear
// probing, never more than half full, so probe chains stay short and always
// end) beside the ring of its keys in insertion order. flags[i] == 0 marks
// an empty slot — remembered flags are never zero — so any key, 0 included,
// can be stored, and the zero value is an empty cache.
type seenCache struct {
	keys  [seenSlots]uint64
	flags [seenSlots]uint8
	order [seenCacheSize]uint64
	n     int // keys ever inserted; the next goes to order[n%seenCacheSize]
}

const (
	seenBits      = 13
	seenSlots     = 1 << seenBits
	seenMask      = seenSlots - 1
	seenCacheSize = seenSlots / 2
	seenFib       = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// seenHome is k's first probe slot: the top bits of a Fibonacci hash.
func seenHome(k uint64) int { return int(k * seenFib >> (64 - seenBits)) }

// slot returns the slot holding k, or the empty slot where k would go.
func (c *seenCache) slot(k uint64) int {
	i := seenHome(k)
	for c.flags[i] != 0 && c.keys[i] != k {
		i = (i + 1) & seenMask
	}
	return i
}

// get returns k's flags: seenRx/seenTx bits, so one probe answers both
// questions, or zero when k is not cached.
func (c *seenCache) get(k uint64) uint8 { return c.flags[c.slot(k)] }

// remember ORs a non-zero flag into k's entry, evicting the oldest key
// first when k is new and the cache is full.
func (c *seenCache) remember(k uint64, flag uint8) {
	i := c.slot(k)
	if c.flags[i] != 0 {
		c.flags[i] |= flag
		return
	}
	if c.n >= seenCacheSize {
		c.delete(c.order[c.n%seenCacheSize])
		i = c.slot(k) // the deletion may have shifted k's probe chain
	}
	c.order[c.n%seenCacheSize] = k
	c.n++
	c.keys[i], c.flags[i] = k, flag
}

// delete removes a cached key by backward shift: each later entry of the
// probe chain moves into the hole if the hole lies on its own probe path,
// so no tombstones accumulate and lookups stay exact.
func (c *seenCache) delete(k uint64) {
	i := c.slot(k)
	for j := (i + 1) & seenMask; c.flags[j] != 0; j = (j + 1) & seenMask {
		if (j-seenHome(c.keys[j]))&seenMask >= (j-i)&seenMask {
			c.keys[i], c.flags[i] = c.keys[j], c.flags[j]
			i = j
		}
	}
	c.flags[i] = 0
}

func newNode(id packet.NodeID, pos env.Position, cfg Config) *node {
	return &node{
		id:      id,
		pos:     pos,
		up:      true,
		voltage: cfg.InitialVoltage,
		table:   ctp.NewTable(id),
	}
}

// isSink reports whether this node is the collection root.
func (nd *node) isSink() bool { return nd.id == packet.SinkID }

// seenRx/seenTx are the per-packet flags in the seen cache.
const (
	seenRx = uint8(1) << iota
	seenTx
)

// reboot power-cycles the node: volatile state (routing table, counters,
// queue, caches, uptime) clears; the battery does not recover.
func (nd *node) reboot() {
	nd.up = true
	nd.uptime = 0
	nd.radioOn = 0
	nd.table.Reset()
	nd.queue = nil
	nd.qhead = 0
	nd.ctr = counters{}
	nd.seen = seenCache{}
	nd.seq = 0
	nd.incarnation++
	nd.forcedParent = nil
}

// fail powers the node off.
func (nd *node) fail() {
	nd.up = false
	nd.queue = nil
	nd.qhead = 0
}

// parentFor returns the next hop honoring a forced parent.
func (nd *node) parent() packet.NodeID {
	if nd.forcedParent != nil {
		return *nd.forcedParent
	}
	return nd.table.Parent()
}

// qlen is the number of queued packets.
func (nd *node) qlen() int { return len(nd.queue) - nd.qhead }

// qpop removes and returns the head-of-line packet.
func (nd *node) qpop() dataPacket {
	p := nd.queue[nd.qhead]
	nd.qhead++
	if nd.qhead == len(nd.queue) {
		nd.queue = nd.queue[:0]
		nd.qhead = 0
	}
	return p
}

// enqueue appends a packet, returning false on overflow.
func (nd *node) enqueue(p dataPacket, capacity int) bool {
	if nd.qlen() >= capacity {
		nd.ctr.overflowDrop++
		return false
	}
	if nd.qhead > 0 && len(nd.queue) == cap(nd.queue) {
		// Reclaim the popped prefix instead of growing the backing array.
		k := copy(nd.queue, nd.queue[nd.qhead:])
		nd.queue = nd.queue[:k]
		nd.qhead = 0
	}
	nd.queue = append(nd.queue, p)
	if nd.qlen() > int(nd.ctr.queuePeak) {
		nd.ctr.queuePeak = uint8(nd.qlen())
	}
	return true
}

// buildReport assembles the node's current C1/C2/C3 report for an epoch.
func (nd *node) buildReport(f *env.Field) packet.Report {
	c2entries := nd.table.C2Entries()
	pathLen := uint8(0)
	if nd.table.Parent() != ctp.NoParent {
		// Path length is approximated from path-ETX: roughly one hop per
		// 1.5 ETX units, matching good links of ETX ~1.5 per hop.
		pathLen = uint8(nd.table.PathETX()/1.5) + 1
	}
	report := packet.Report{
		C1: packet.C1{
			Node:        nd.id,
			Seq:         nd.seq,
			Temperature: f.Temperature(nd.pos),
			Humidity:    f.Humidity(nd.pos),
			Light:       f.Light(nd.pos),
			Voltage:     nd.voltage,
			PathETX:     nd.table.PathETX(),
			PathLength:  pathLen,
			RadioOnTime: nd.radioOn,
			NeighborNum: uint8(nd.table.Len()),
		},
		C2: packet.C2{Node: nd.id, Seq: nd.seq, Entries: c2entries},
		C3: packet.C3{
			Node:            nd.id,
			Seq:             nd.seq,
			ParentChange:    nd.table.ParentChanges(),
			Transmit:        nd.ctr.transmit,
			Receive:         nd.ctr.receive,
			SelfTransmit:    nd.ctr.selfTransmit,
			Forward:         nd.ctr.forward,
			OverflowDrop:    nd.ctr.overflowDrop,
			Loop:            nd.ctr.loop,
			NOACKRetransmit: nd.ctr.noackRetransmit,
			Duplicate:       nd.ctr.duplicate,
			DropPacket:      nd.ctr.dropPacket,
			MacBackoff:      nd.ctr.macBackoff,
			NoParent:        nd.table.NoParentTicks(),
			Beacon:          nd.ctr.beacon,
			QueuePeak:       nd.ctr.queuePeak,
			Uptime:          uint32(nd.uptime / time.Second),
		},
	}
	return report
}
