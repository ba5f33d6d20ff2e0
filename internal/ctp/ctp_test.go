package ctp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

func TestHearBeaconAddsEntry(t *testing.T) {
	tb := NewTable(1)
	if err := tb.HearBeacon(2, -75, 2.0); err != nil {
		t.Fatalf("HearBeacon: %v", err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	e := tb.Entries()[0]
	if e.Neighbor != 2 || e.RSSI != -75 || e.PathETX != 2.0 {
		t.Errorf("entry = %+v", e)
	}
	if e.LinkETX < 1 {
		t.Errorf("LinkETX = %v, want >= 1", e.LinkETX)
	}
}

func TestHearOwnBeaconRejected(t *testing.T) {
	tb := NewTable(3)
	if err := tb.HearBeacon(3, -70, 1); err == nil {
		t.Error("accepted own beacon")
	}
}

func TestHearBeaconUpdatesExisting(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -75, 2.0)
	mustHear(t, tb, 2, -60, 1.5)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	e := tb.Entries()[0]
	if e.RSSI != -60 || e.PathETX != 1.5 {
		t.Errorf("entry not updated: %+v", e)
	}
}

func mustHear(t *testing.T, tb *Table, from packet.NodeID, rssi, pathETX float64) {
	t.Helper()
	if err := tb.HearBeacon(from, rssi, pathETX); err != nil {
		t.Fatalf("HearBeacon(%d): %v", from, err)
	}
}

func TestTableCapacityEviction(t *testing.T) {
	tb := NewTable(1)
	// Fill the table with mediocre neighbors.
	for i := 0; i < metricspec.MaxNeighbors; i++ {
		mustHear(t, tb, packet.NodeID(10+i), -90, 8)
	}
	if tb.Len() != metricspec.MaxNeighbors {
		t.Fatalf("Len = %d, want %d", tb.Len(), metricspec.MaxNeighbors)
	}
	// A clearly better neighbor must evict the worst.
	mustHear(t, tb, 99, -60, 0.5)
	if tb.Len() != metricspec.MaxNeighbors {
		t.Fatalf("Len after eviction = %d, want %d", tb.Len(), metricspec.MaxNeighbors)
	}
	if tb.find(99) == nil {
		t.Error("better neighbor was not admitted")
	}
	// A clearly worse neighbor must be rejected.
	mustHear(t, tb, 100, -95, 50)
	if tb.find(100) != nil {
		t.Error("worse neighbor displaced an existing entry")
	}
}

func TestSelectParentPicksLowestCost(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 3) // cost ≈ 1.1+3
	mustHear(t, tb, 3, -70, 1) // cost ≈ 1.1+1 — best
	mustHear(t, tb, 4, -92, 1) // weak link
	if p := tb.SelectParent(); p != 3 {
		t.Errorf("parent = %d, want 3", p)
	}
	if tb.ParentChanges() != 1 {
		t.Errorf("ParentChanges = %d, want 1", tb.ParentChanges())
	}
}

func TestSelectParentHysteresis(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 2.0)
	if p := tb.SelectParent(); p != 2 {
		t.Fatalf("parent = %d, want 2", p)
	}
	// A marginally better candidate must NOT trigger a switch.
	mustHear(t, tb, 3, -70, 1.9)
	if p := tb.SelectParent(); p != 2 {
		t.Errorf("parent switched to %d on marginal improvement", p)
	}
	// A clearly better candidate must.
	mustHear(t, tb, 4, -70, 0.5)
	if p := tb.SelectParent(); p != 4 {
		t.Errorf("parent = %d, want 4 after clear improvement", p)
	}
	if tb.ParentChanges() != 2 {
		t.Errorf("ParentChanges = %d, want 2", tb.ParentChanges())
	}
}

func TestSelectParentEmptyTable(t *testing.T) {
	tb := NewTable(1)
	if p := tb.SelectParent(); p != NoParent {
		t.Errorf("parent = %d, want NoParent", p)
	}
	if tb.NoParentTicks() != 1 {
		t.Errorf("NoParentTicks = %d, want 1", tb.NoParentTicks())
	}
}

func TestParentLossCountsChange(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	tb.SelectParent()
	tb.Tick(0) // the parent goes stale and is evicted
	if tb.Parent() != NoParent {
		t.Error("parent survived its eviction")
	}
	if p := tb.SelectParent(); p != NoParent {
		t.Errorf("parent = %d, want NoParent", p)
	}
	if tb.NoParentTicks() != 1 {
		t.Errorf("NoParentTicks = %d, want 1", tb.NoParentTicks())
	}
}

func TestReportTx(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	before := tb.Entries()[0].LinkETX
	// Repeated failures must drive ETX up.
	for i := 0; i < 10; i++ {
		if err := tb.ReportTx(2, false, 30); err != nil {
			t.Fatalf("ReportTx: %v", err)
		}
	}
	after := tb.Entries()[0].LinkETX
	if after <= before {
		t.Errorf("LinkETX after failures = %v, want > %v", after, before)
	}
	// Successes must drive it back down.
	for i := 0; i < 20; i++ {
		if err := tb.ReportTx(2, true, 1); err != nil {
			t.Fatalf("ReportTx: %v", err)
		}
	}
	final := tb.Entries()[0].LinkETX
	if final >= after {
		t.Errorf("LinkETX after successes = %v, want < %v", final, after)
	}
	if final < 1 {
		t.Errorf("LinkETX = %v, below floor 1", final)
	}
}

func TestReportTxUnknownNeighbor(t *testing.T) {
	tb := NewTable(1)
	if err := tb.ReportTx(42, true, 1); err == nil {
		t.Error("ReportTx to unknown neighbor succeeded")
	}
}

func TestLinkETXCapped(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -95, 1)
	for i := 0; i < 50; i++ {
		if err := tb.ReportTx(2, false, 30); err != nil {
			t.Fatalf("ReportTx: %v", err)
		}
	}
	if etx := tb.Entries()[0].LinkETX; etx > maxLinkETX {
		t.Errorf("LinkETX = %v exceeds cap %v", etx, maxLinkETX)
	}
}

func TestTickEvictsStale(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	mustHear(t, tb, 3, -70, 1)
	tb.SelectParent()
	// Refresh only neighbor 3 across several epochs.
	for i := 0; i < 5; i++ {
		tb.Tick(3)
		mustHear(t, tb, 3, -70, 1)
	}
	if tb.find(2) != nil {
		t.Error("stale neighbor 2 survived 5 ticks with maxStale=3")
	}
	if tb.find(3) == nil {
		t.Error("fresh neighbor 3 was evicted")
	}
}

func TestTickClearsDeadParent(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	tb.SelectParent()
	for i := 0; i < 5; i++ {
		tb.Tick(2)
	}
	if tb.Parent() != NoParent {
		t.Error("parent survived staleness eviction")
	}
}

func TestPathETX(t *testing.T) {
	tb := NewTable(1)
	if tb.PathETX() < maxLinkETX {
		t.Errorf("parentless PathETX = %v, want large", tb.PathETX())
	}
	mustHear(t, tb, 2, -70, 2)
	tb.SelectParent()
	got := tb.PathETX()
	want := tb.Entries()[0].Cost()
	if got != want {
		t.Errorf("PathETX = %v, want %v", got, want)
	}
}

func TestC2Entries(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 5)
	mustHear(t, tb, 3, -70, 1)
	entries := tb.C2Entries()
	if len(entries) != 2 {
		t.Fatalf("len = %d, want 2", len(entries))
	}
	// Stable slot order: ascending neighbor ID.
	if entries[0].Neighbor != 2 || entries[1].Neighbor != 3 {
		t.Errorf("entries order = %d,%d, want 2,3", entries[0].Neighbor, entries[1].Neighbor)
	}
	if entries[0].RSSI != -70 || entries[0].PathETX != 5 {
		t.Errorf("entry fields = %+v", entries[0])
	}
	if entries[1].PathETX != 1 {
		t.Errorf("entry fields = %+v", entries[1])
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	es := tb.Entries()
	es[0].PathETX = 999
	if tb.Entries()[0].PathETX == 999 {
		t.Error("Entries exposes internal storage")
	}
}

func TestReset(t *testing.T) {
	tb := NewTable(1)
	mustHear(t, tb, 2, -70, 1)
	tb.SelectParent()
	tb.Reset()
	if tb.Len() != 0 || tb.Parent() != NoParent || tb.ParentChanges() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestEntryCost(t *testing.T) {
	e := Entry{LinkETX: 1.5, PathETX: 2.5}
	if e.Cost() != 4 {
		t.Errorf("Cost = %v, want 4", e.Cost())
	}
}

func TestInitialETXMonotone(t *testing.T) {
	prev := 0.0
	for _, rssi := range []float64{-60, -85, -90, -95} {
		etx := initialETX(rssi)
		if etx < prev {
			t.Errorf("initialETX not monotone: rssi=%v etx=%v prev=%v", rssi, etx, prev)
		}
		prev = etx
	}
}

// oracleC2Entries is C2Entries as it stood: copy the table, reflection-sort
// the copy by neighbor, convert.
func oracleC2Entries(t *Table) []packet.NeighborEntry {
	entries := make([]Entry, len(t.entries))
	copy(entries, t.entries)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Neighbor < entries[j].Neighbor })
	out := make([]packet.NeighborEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, packet.NeighborEntry{
			Neighbor: e.Neighbor,
			RSSI:     e.RSSI,
			LinkETX:  e.LinkETX,
			PathETX:  e.PathETX,
		})
	}
	return out
}

func TestC2EntriesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		tb := NewTable(0)
		// More distinct neighbors than slots, heard in random order and
		// aged out at random: tables of every size up to MaxNeighbors, in
		// the slot order evictions leave behind.
		for step := rng.Intn(60); step >= 0; step-- {
			if rng.Intn(10) < 7 {
				mustHear(t, tb, packet.NodeID(1+rng.Intn(25)), -60-40*rng.Float64(), 1+10*rng.Float64())
			} else {
				tb.Tick(2)
			}
			got, want := tb.C2Entries(), oracleC2Entries(tb)
			if got == nil || !slices.Equal(got, want) {
				t.Fatalf("trial %d: C2Entries = %v, oracle %v", trial, got, want)
			}
			if len(got) > metricspec.MaxNeighbors {
				t.Fatalf("trial %d: %d entries", trial, len(got))
			}
		}
	}
}
