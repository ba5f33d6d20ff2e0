package wsn

import (
	"errors"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// newTestNetwork builds a small dense grid that reliably forms a collection
// tree within a couple of epochs.
func newTestNetwork(t *testing.T, seed int64) *Network {
	t.Helper()
	topo, err := GridTopology(3, 3, 12)
	if err != nil {
		t.Fatalf("GridTopology: %v", err)
	}
	n, err := New(Config{Seed: seed, Topology: topo, ReportInterval: 3 * time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func warmUp(t *testing.T, n *Network, epochs int) []*EpochResult {
	t.Helper()
	res, err := n.Run(epochs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestNewRejectsEmptyTopology(t *testing.T) {
	if _, err := New(Config{Seed: 1}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v, want ErrNoNodes", err)
	}
	if _, err := New(Config{Seed: 1, Topology: []env.Position{{X: 0, Y: 0}}}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("single-position err = %v, want ErrNoNodes", err)
	}
}

func TestGridTopology(t *testing.T) {
	topo, err := GridTopology(9, 5, 10)
	if err != nil {
		t.Fatalf("GridTopology: %v", err)
	}
	if len(topo) != 46 { // 45 nodes + sink
		t.Fatalf("len = %d, want 46", len(topo))
	}
	if topo[0] != (env.Position{X: 0, Y: 0}) {
		t.Errorf("sink at %v", topo[0])
	}
	if _, err := GridTopology(0, 5, 10); err == nil {
		t.Error("GridTopology(0,...) succeeded")
	}
	if _, err := GridTopology(2, 2, -1); err == nil {
		t.Error("negative spacing succeeded")
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a, err := RandomTopology(50, 500, 7)
	if err != nil {
		t.Fatalf("RandomTopology: %v", err)
	}
	b, _ := RandomTopology(50, 500, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomTopology not deterministic")
		}
	}
	if _, err := RandomTopology(0, 500, 1); err == nil {
		t.Error("RandomTopology(0) succeeded")
	}
	if _, err := RandomTopology(5, 0, 1); err == nil {
		t.Error("zero field succeeded")
	}
}

func TestNetworkFormsTreeAndDelivers(t *testing.T) {
	n := newTestNetwork(t, 1)
	res := warmUp(t, n, 5)
	last := res[len(res)-1]
	if last.Generated == 0 {
		t.Fatal("no traffic generated")
	}
	if last.PRR < 0.7 {
		t.Errorf("steady-state PRR = %v, want healthy (>0.7)", last.PRR)
	}
	if len(last.Reports) < 7 {
		t.Errorf("only %d/9 reports reached the sink", len(last.Reports))
	}
}

func TestReportsAreWellFormed(t *testing.T) {
	n := newTestNetwork(t, 2)
	res := warmUp(t, n, 4)
	for _, r := range res[len(res)-1].Reports {
		v, err := r.Vector()
		if err != nil {
			t.Fatalf("Vector: %v", err)
		}
		if len(v) != metricspec.MetricCount {
			t.Fatalf("vector length %d", len(v))
		}
		if v[metricspec.Voltage] < 2 || v[metricspec.Voltage] > 3.5 {
			t.Errorf("node %d voltage %v implausible", r.C1.Node, v[metricspec.Voltage])
		}
		if v[metricspec.Uptime] <= 0 {
			t.Errorf("node %d uptime %v", r.C1.Node, v[metricspec.Uptime])
		}
		if r.C1.NeighborNum == 0 {
			t.Errorf("node %d has empty routing table at steady state", r.C1.Node)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []*EpochResult {
		topo, _ := GridTopology(3, 3, 12)
		n, err := New(Config{Seed: 42, Topology: topo})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := n.Run(6)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Generated != b[i].Generated || a[i].Delivered != b[i].Delivered {
			t.Fatalf("epoch %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if len(a[i].Reports) != len(b[i].Reports) {
			t.Fatalf("epoch %d report counts differ", i)
		}
		for j := range a[i].Reports {
			va, _ := a[i].Reports[j].Vector()
			vb, _ := b[i].Reports[j].Vector()
			for k := range va {
				if va[k] != vb[k] {
					t.Fatalf("epoch %d node %d metric %d differs: %v vs %v",
						i, a[i].Reports[j].C1.Node, k, va[k], vb[k])
				}
			}
		}
	}
}

func TestFailNodeStopsReports(t *testing.T) {
	n := newTestNetwork(t, 3)
	warmUp(t, n, 3)
	const victim packet.NodeID = 5
	if err := n.FailNode(victim); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if up, _ := n.NodeUp(victim); up {
		t.Fatal("victim still up")
	}
	res := warmUp(t, n, 2)
	for _, r := range res[len(res)-1].Reports {
		if r.C1.Node == victim {
			t.Error("failed node still reporting")
		}
	}
	events := n.EventsOfType(EventFail)
	if len(events) != 1 || events[0].Node != victim {
		t.Errorf("event log = %+v", events)
	}
}

func TestFailNodeIdempotent(t *testing.T) {
	n := newTestNetwork(t, 4)
	if err := n.FailNode(5); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := n.FailNode(5); err != nil {
		t.Fatalf("second FailNode: %v", err)
	}
	if got := len(n.EventsOfType(EventFail)); got != 1 {
		t.Errorf("fail events = %d, want 1 (second fail is a no-op)", got)
	}
}

func TestRebootResetsCounters(t *testing.T) {
	n := newTestNetwork(t, 5)
	warmUp(t, n, 4)
	const victim packet.NodeID = 3
	nd := n.nodes[victim]
	if nd.ctr.transmit == 0 {
		t.Fatal("node transmitted nothing before reboot")
	}
	if err := n.RebootNode(victim); err != nil {
		t.Fatalf("RebootNode: %v", err)
	}
	if nd.ctr.transmit != 0 || nd.uptime != 0 || nd.table.Len() != 0 {
		t.Error("reboot did not clear volatile state")
	}
	if up, _ := n.NodeUp(victim); !up {
		t.Error("node down after reboot")
	}
}

func TestSinkImmutable(t *testing.T) {
	n := newTestNetwork(t, 6)
	if err := n.FailNode(packet.SinkID); !errors.Is(err, ErrSinkImmutable) {
		t.Errorf("FailNode(sink) err = %v", err)
	}
	if err := n.RebootNode(packet.SinkID); !errors.Is(err, ErrSinkImmutable) {
		t.Errorf("RebootNode(sink) err = %v", err)
	}
	if err := n.DrainBattery(packet.SinkID, 1); !errors.Is(err, ErrSinkImmutable) {
		t.Errorf("DrainBattery(sink) err = %v", err)
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	n := newTestNetwork(t, 7)
	bad := packet.NodeID(200)
	if err := n.FailNode(bad); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("FailNode err = %v", err)
	}
	if _, err := n.NodeUp(bad); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("NodeUp err = %v", err)
	}
	if _, err := n.Voltage(bad); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Voltage err = %v", err)
	}
	if _, err := n.Parent(bad); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Parent err = %v", err)
	}
	if err := n.DegradeLink(1, bad, 10); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("DegradeLink err = %v", err)
	}
	if err := n.InjectLoop(1, bad); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("InjectLoop err = %v", err)
	}
}

func TestInjectLoopProducesLoopCounters(t *testing.T) {
	n := newTestNetwork(t, 8)
	warmUp(t, n, 3)
	if err := n.InjectLoop(4, 5, 8); err != nil {
		t.Fatalf("InjectLoop: %v", err)
	}
	warmUp(t, n, 3)
	var loops, dups uint32
	for _, id := range []packet.NodeID{4, 5, 8} {
		loops += n.nodes[id].ctr.loop
		dups += n.nodes[id].ctr.duplicate
	}
	if loops == 0 {
		t.Error("no loop detections inside an injected routing loop")
	}
	if dups == 0 {
		t.Error("no duplicates inside an injected routing loop")
	}
	// Clearing the loop must restore delivery.
	n.ClearForcedParents()
	res := warmUp(t, n, 3)
	if res[len(res)-1].PRR < 0.5 {
		t.Errorf("PRR after loop cleared = %v", res[len(res)-1].PRR)
	}
	if len(n.EventsOfType(EventLoopInjected)) != 1 || len(n.EventsOfType(EventLoopCleared)) != 1 {
		t.Error("loop events not recorded")
	}
}

func TestInjectLoopNeedsTwoNodes(t *testing.T) {
	n := newTestNetwork(t, 9)
	if err := n.InjectLoop(3); err == nil {
		t.Error("single-node loop accepted")
	}
}

func TestInjectLoopDegradesPRR(t *testing.T) {
	n := newTestNetwork(t, 10)
	warmUp(t, n, 4)
	healthy := warmUp(t, n, 3)
	healthyPRR := healthy[len(healthy)-1].PRR
	// Loop the sink's likely neighborhood to trap traffic.
	if err := n.InjectLoop(1, 2); err != nil {
		t.Fatalf("InjectLoop: %v", err)
	}
	looped := warmUp(t, n, 3)
	loopedPRR := looped[len(looped)-1].PRR
	if loopedPRR >= healthyPRR {
		t.Errorf("loop did not hurt PRR: healthy %v, looped %v", healthyPRR, loopedPRR)
	}
}

func TestDegradeLinkRecordsEvent(t *testing.T) {
	n := newTestNetwork(t, 11)
	if err := n.DegradeLink(1, 2, 30); err != nil {
		t.Fatalf("DegradeLink: %v", err)
	}
	if len(n.EventsOfType(EventLinkDegraded)) != 1 {
		t.Error("link degradation not recorded")
	}
}

func TestInterferenceIncreasesRetransmits(t *testing.T) {
	n := newTestNetwork(t, 12)
	warmUp(t, n, 4)
	var before uint32
	for _, nd := range n.nodes[1:] {
		before += nd.ctr.noackRetransmit + nd.ctr.macBackoff
	}
	// Blanket the grid with interference.
	n.InjectInterference(env.Position{X: 20, Y: 12}, 2*time.Hour)
	warmUp(t, n, 4)
	var after uint32
	for _, nd := range n.nodes[1:] {
		after += nd.ctr.noackRetransmit + nd.ctr.macBackoff
	}
	if after-before == 0 {
		t.Error("interference produced no extra retransmissions or backoffs")
	}
	if len(n.EventsOfType(EventInterference)) != 1 {
		t.Error("interference not recorded")
	}
}

func TestDrainBatteryLeadsToEnergyDepletion(t *testing.T) {
	n := newTestNetwork(t, 13)
	warmUp(t, n, 2)
	if err := n.DrainBattery(7, 0.5); err != nil {
		t.Fatalf("DrainBattery: %v", err)
	}
	warmUp(t, n, 2)
	if up, _ := n.NodeUp(7); up {
		t.Error("drained node still up")
	}
	if len(n.EventsOfType(EventEnergyDepleted)) != 1 {
		t.Error("energy depletion not recorded")
	}
}

func TestRandomRebootEventually(t *testing.T) {
	topo, _ := GridTopology(3, 3, 12)
	n, err := New(Config{Seed: 21, Topology: topo, RandomRebootProb: 0.2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	warmUp(t, n, 10)
	if len(n.EventsOfType(EventReboot)) == 0 {
		t.Error("no spontaneous reboot in 10 epochs at p=0.2 per node")
	}
}

func TestVoltageDrainsOverTime(t *testing.T) {
	n := newTestNetwork(t, 14)
	v0, _ := n.Voltage(1)
	warmUp(t, n, 10)
	v1, _ := n.Voltage(1)
	if v1 >= v0 {
		t.Errorf("voltage did not drain: %v -> %v", v0, v1)
	}
}

func TestEpochAndClockAdvance(t *testing.T) {
	n := newTestNetwork(t, 15)
	warmUp(t, n, 3)
	if n.Epoch() != 3 {
		t.Errorf("Epoch = %d, want 3", n.Epoch())
	}
	if n.Now() != 9*time.Minute {
		t.Errorf("Now = %v, want 9m", n.Now())
	}
}

func TestEventTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    EventType
		want string
	}{
		{EventFail, "node-failure"},
		{EventReboot, "node-reboot"},
		{EventEnergyDepleted, "energy-depleted"},
		{EventLoopInjected, "loop-injected"},
		{EventLoopCleared, "loop-cleared"},
		{EventLinkDegraded, "link-degraded"},
		{EventInterference, "interference"},
		{EventType(99), "EventType(99)"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	n := newTestNetwork(t, 16)
	_ = n.FailNode(1)
	events := n.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	events[0].Node = 99
	if n.Events()[0].Node == 99 {
		t.Error("Events exposes internal log")
	}
}

func TestPositionsCopy(t *testing.T) {
	n := newTestNetwork(t, 17)
	ps := n.Positions()
	if len(ps) != n.NumNodes() {
		t.Fatalf("positions = %d", len(ps))
	}
	ps[0].X = 1e9
	if n.Positions()[0].X == 1e9 {
		t.Error("Positions exposes internal state")
	}
}

func TestNodeFailureIncreasesNeighborsNOACK(t *testing.T) {
	// When a node's parent dies, its unicast sequences fail with pure NOACK
	// retransmissions until the estimator reroutes — the Ψ1 signature in
	// Fig. 5(c).
	n := newTestNetwork(t, 18)
	warmUp(t, n, 4)
	// Find a node whose parent is not the sink, then kill the parent.
	var child, parent packet.NodeID
	found := false
	for id := packet.NodeID(1); int(id) < n.NumNodes(); id++ {
		p, err := n.Parent(id)
		if err != nil {
			t.Fatalf("Parent: %v", err)
		}
		if p != packet.SinkID && p != 0xFFFF {
			child, parent = id, p
			found = true
			break
		}
	}
	if !found {
		t.Skip("tree is single-hop with this seed")
	}
	before := n.nodes[child].ctr.noackRetransmit
	if err := n.FailNode(parent); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	warmUp(t, n, 2)
	after := n.nodes[child].ctr.noackRetransmit
	if after <= before {
		t.Errorf("child NOACK retransmits did not rise after parent death: %d -> %d", before, after)
	}
}

func TestQueueOverflowUnderLoop(t *testing.T) {
	n := newTestNetwork(t, 19)
	warmUp(t, n, 3)
	if err := n.InjectLoop(1, 2, 3); err != nil {
		t.Fatalf("InjectLoop: %v", err)
	}
	warmUp(t, n, 4)
	var overflow uint32
	for _, nd := range n.nodes[1:] {
		overflow += nd.ctr.overflowDrop
	}
	if overflow == 0 {
		t.Log("no overflow under loop; acceptable for small grid but noted")
	}
}

func TestRunStopsOnError(t *testing.T) {
	n := newTestNetwork(t, 20)
	// Run with a huge count must not error for a healthy network.
	if _, err := n.Run(3); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClockSkewChangesGeneration(t *testing.T) {
	topo, _ := GridTopology(3, 3, 12)
	base, err := New(Config{Seed: 30, Topology: topo})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	skewed, err := New(Config{Seed: 30, Topology: topo, ClockSkewPerDegree: 0.2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var baseGen, skewGen int
	for i := 0; i < 12; i++ {
		rb, err := base.Step()
		if err != nil {
			t.Fatalf("base step: %v", err)
		}
		rs, err := skewed.Step()
		if err != nil {
			t.Fatalf("skew step: %v", err)
		}
		baseGen += rb.Generated
		skewGen += rs.Generated
	}
	if baseGen != 12*9*3 {
		t.Errorf("base generated %d, want constant %d", baseGen, 12*9*3)
	}
	if skewGen == baseGen {
		t.Error("clock skew had no effect on generation over 12 epochs")
	}
}
