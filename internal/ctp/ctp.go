// Package ctp implements the node-local state of a CTP-style collection
// tree protocol: per-neighbor link-ETX estimation (EWMA over data-plane
// outcomes and beacon receptions), a bounded routing table, and ETX-greedy
// parent selection with hysteresis.
//
// The package deliberately contains no I/O or global topology knowledge —
// it is the routing brain of a single node. The network simulator
// (internal/wsn) delivers beacons, runs data transmissions, reports their
// outcomes back, and detects loops globally.
package ctp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// NoParent marks a node with no selected parent.
const NoParent packet.NodeID = 0xFFFF

// ParentSwitchHysteresis is the path-ETX improvement a candidate must offer
// before the node abandons its current parent, damping route flapping.
const ParentSwitchHysteresis = 0.5

// maxLinkETX caps the estimator so a dead link does not dominate
// arithmetic.
const maxLinkETX = 16

// Entry is one routing-table row.
type Entry struct {
	Neighbor packet.NodeID
	// RSSI is the last-heard signal strength in dBm.
	RSSI float64
	// LinkETX is the EWMA expected-transmissions estimate for this link.
	LinkETX float64
	// PathETX is the neighbor's advertised cost to the sink.
	PathETX float64
	// fresh counts epochs since the entry was last updated; stale entries
	// are eviction candidates.
	staleness int
}

// Cost is the total route cost through this neighbor.
func (e Entry) Cost() float64 { return e.LinkETX + e.PathETX }

// Table is the routing state of one node.
type Table struct {
	self    packet.NodeID
	entries []Entry
	parent  packet.NodeID

	// Counters surfaced into the C3 report.
	parentChanges uint32
	noParentTicks uint32
}

// NewTable creates the routing table for node self.
func NewTable(self packet.NodeID) *Table {
	return &Table{self: self, parent: NoParent}
}

// Parent returns the current parent, or NoParent.
func (t *Table) Parent() packet.NodeID { return t.parent }

// ParentChanges returns the cumulative parent-change count.
func (t *Table) ParentChanges() uint32 { return t.parentChanges }

// NoParentTicks returns how many selection rounds ended with no parent.
func (t *Table) NoParentTicks() uint32 { return t.noParentTicks }

// Entries returns a copy of the routing table sorted by ascending cost.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	sort.Slice(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// Len returns the routing-table occupancy.
func (t *Table) Len() int { return len(t.entries) }

func (t *Table) find(n packet.NodeID) *Entry {
	for i := range t.entries {
		if t.entries[i].Neighbor == n {
			return &t.entries[i]
		}
	}
	return nil
}

// HearBeacon records a routing beacon from a neighbor: its advertised
// path-ETX and the RSSI it was heard at. New neighbors enter the table with
// an optimistic link estimate derived from RSSI; if the table is full the
// worst-cost entry is evicted when the newcomer would beat it.
func (t *Table) HearBeacon(from packet.NodeID, rssi, pathETX float64) error {
	if from == t.self {
		return fmt.Errorf("ctp: node %d heard its own beacon", t.self)
	}
	if e := t.find(from); e != nil {
		e.RSSI = rssi
		e.PathETX = pathETX
		// A heard beacon is weak evidence the link works; nudge the
		// estimator slightly toward usable.
		e.LinkETX = clampETX(0.9*e.LinkETX + 0.1*initialETX(rssi))
		e.staleness = 0
		return nil
	}
	ne := Entry{Neighbor: from, RSSI: rssi, PathETX: pathETX, LinkETX: initialETX(rssi)}
	if len(t.entries) < metricspec.MaxNeighbors {
		t.entries = append(t.entries, ne)
		return nil
	}
	// Table full: replace the worst entry if the newcomer is better.
	worst := 0
	for i := range t.entries {
		if t.entries[i].Cost() > t.entries[worst].Cost() {
			worst = i
		}
	}
	if ne.Cost() < t.entries[worst].Cost() {
		t.entries[worst] = ne
	}
	return nil
}

// initialETX seeds a link estimate from RSSI: strong links start near 1,
// weak links start pessimistic.
func initialETX(rssi float64) float64 {
	switch {
	case rssi >= -80:
		return 1.1
	case rssi >= -88:
		return 1.6
	case rssi >= -92:
		return 3
	default:
		return 6
	}
}

// ReportTx folds a data-plane transmission outcome into the link estimator
// for the neighbor: ETX is EWMA'd toward the attempts it took to get an ACK
// (or the cap on total failure).
func (t *Table) ReportTx(to packet.NodeID, acked bool, attempts int) error {
	e := t.find(to)
	if e == nil {
		return fmt.Errorf("ctp: tx report for unknown neighbor %d", to)
	}
	const alpha = 0.3
	sample := float64(attempts)
	if !acked {
		sample = maxLinkETX
	}
	e.LinkETX = clampETX((1-alpha)*e.LinkETX + alpha*sample)
	e.staleness = 0
	return nil
}

func clampETX(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > maxLinkETX {
		return maxLinkETX
	}
	return v
}

// Tick ages all entries and evicts those not heard from for maxStale
// selection rounds. Call once per reporting epoch.
func (t *Table) Tick(maxStale int) {
	kept := t.entries[:0]
	for _, e := range t.entries {
		e.staleness++
		if e.staleness <= maxStale {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if t.parent != NoParent && t.find(t.parent) == nil {
		t.parent = NoParent
	}
}

// SelectParent runs ETX-greedy parent selection with hysteresis and returns
// the chosen parent. Selecting no parent increments the no-parent counter;
// an actual switch increments the parent-change counter.
func (t *Table) SelectParent() packet.NodeID {
	best := NoParent
	bestCost := math.Inf(1)
	for _, e := range t.entries {
		if c := e.Cost(); c < bestCost {
			best, bestCost = e.Neighbor, c
		}
	}
	if best == NoParent {
		t.noParentTicks++
		if t.parent != NoParent {
			t.parent = NoParent
			t.parentChanges++
		}
		return NoParent
	}
	if t.parent == NoParent {
		t.parent = best
		t.parentChanges++
		return best
	}
	if best != t.parent {
		cur := t.find(t.parent)
		if cur == nil || bestCost+ParentSwitchHysteresis < cur.Cost() {
			t.parent = best
			t.parentChanges++
		}
	}
	return t.parent
}

// PathETX returns the node's own cost to the sink: the parent's advertised
// path-ETX plus the parent link's ETX. A parentless node advertises the
// cap; the sink should not use a Table at all.
func (t *Table) PathETX() float64 {
	if t.parent == NoParent {
		return maxLinkETX * 4
	}
	e := t.find(t.parent)
	if e == nil {
		return maxLinkETX * 4
	}
	return e.Cost()
}

// C2Entries renders the routing table in C2-packet form. Entries are
// ordered by neighbor ID so a given neighbor occupies a stable slot across
// epochs — slot churn would otherwise masquerade as RSSI/ETX variation in
// the diffed state vectors.
func (t *Table) C2Entries() []packet.NeighborEntry {
	out := make([]packet.NeighborEntry, len(t.entries))
	for i, e := range t.entries {
		out[i] = packet.NeighborEntry{
			Neighbor: e.Neighbor,
			RSSI:     e.RSSI,
			LinkETX:  e.LinkETX,
			PathETX:  e.PathETX,
		}
	}
	// A neighbor has one row, so the order is total and any sort yields it.
	slices.SortFunc(out, func(a, b packet.NeighborEntry) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	return out
}

// Reset clears all routing state, as a node reboot does. Counters reset too
// because they live in volatile RAM on a real mote.
func (t *Table) Reset() {
	t.entries = nil
	t.parent = NoParent
	t.parentChanges = 0
	t.noParentTicks = 0
}
