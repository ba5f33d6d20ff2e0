package wsn

import (
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
)

// TestPRRCountsCurrentEpochOnly is the white-box regression for the old
// clamp bug: a delivery of a packet generated in an earlier epoch must not
// count toward the current epoch's PRR numerator.
func TestPRRCountsCurrentEpochOnly(t *testing.T) {
	n := newTestNetwork(t, 50)
	warmUp(t, n, 2)
	sink := n.nodes[0]
	var totals trafficTotals
	// A packet from this epoch and one from a past epoch arrive at the sink.
	n.receive(sink, dataPacket{origin: 3, seq: 900, ttl: 5, genEpoch: n.epoch}, 0, &totals)
	n.receive(sink, dataPacket{origin: 4, seq: 901, ttl: 5, genEpoch: n.epoch - 1}, 0, &totals)
	if totals.delivered != 2 {
		t.Errorf("delivered = %d, want 2", totals.delivered)
	}
	if totals.deliveredCurrent != 1 {
		t.Errorf("deliveredCurrent = %d, want 1 (stale packet counted toward PRR)", totals.deliveredCurrent)
	}
	// A redelivery of the same current-epoch packet is deduplicated.
	n.receive(sink, dataPacket{origin: 3, seq: 900, ttl: 5, genEpoch: n.epoch}, 0, &totals)
	if totals.delivered != 2 || totals.deliveredCurrent != 1 {
		t.Errorf("duplicate delivery counted: %+v", totals)
	}
}

// TestPRRBoundedDuringBacklogDrain reproduces the scenario the removed
// clamp was masking: a bottleneck relay with a capped channel share builds
// a standing backlog; when the upstream sources fail, the backlog drains
// and the sink receives more unique packets than the epoch generated.
// Delivered reports that honestly; PRR must count only current-epoch
// deliveries and stay ≤ 1.
func TestPRRBoundedDuringBacklogDrain(t *testing.T) {
	topo, err := GridTopology(1, 4, 20)
	if err != nil {
		t.Fatalf("GridTopology: %v", err)
	}
	// Eight channel passes per epoch: node 1 can forward at most eight
	// frames while twelve converge on it, so its queue is pinned at
	// capacity while all four sources are alive.
	n, err := New(Config{
		Seed: 51, Topology: topo, ReportInterval: 3 * time.Minute,
		MaxForwardRounds: 8,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Force the line 4→3→2→1→sink so every packet funnels through node 1
	// regardless of what CTP would prefer on this dense topology.
	for id := packet.NodeID(1); id <= 4; id++ {
		parent := id - 1
		n.nodes[id].forcedParent = &parent
	}
	warmUp(t, n, 6) // build the standing backlog at the relay
	if err := n.FailNode(3); err != nil {
		t.Fatalf("FailNode(3): %v", err)
	}
	if err := n.FailNode(4); err != nil {
		t.Fatalf("FailNode(4): %v", err)
	}
	res := warmUp(t, n, 4) // generation halves; the backlog drains
	sawDrain := false
	for _, r := range res {
		if r.Delivered > r.Generated {
			sawDrain = true
		}
		if r.DeliveredCurrent > r.Generated {
			t.Fatalf("epoch %d: DeliveredCurrent %d > Generated %d", r.Epoch, r.DeliveredCurrent, r.Generated)
		}
		if r.PRR < 0 || r.PRR > 1 {
			t.Fatalf("epoch %d: PRR %v out of [0,1]", r.Epoch, r.PRR)
		}
	}
	if !sawDrain {
		t.Error("no epoch drained backlog (Delivered > Generated); scenario did not exercise the regression")
	}
}

// TestLinkPruneExact asserts the pruning soundness contract: iterating only
// links that can ever deliver produces bit-identical simulations to
// iterating the full contention neighborhood.
func TestLinkPruneExact(t *testing.T) {
	run := func(prune bool) ([]*EpochResult, []NodeSnapshot) {
		topo, err := GridTopology(9, 5, 12)
		if err != nil {
			t.Fatalf("GridTopology: %v", err)
		}
		n, err := New(Config{Seed: 42, Topology: topo, ReportInterval: 3 * time.Minute})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if !prune {
			n.candidates = n.contenders
		}
		res, err := n.Run(6)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, n.Snapshots()
	}
	wantRes, wantSnaps := run(true)
	gotRes, gotSnaps := run(false)
	for e := range wantRes {
		a, b := wantRes[e], gotRes[e]
		if a.Generated != b.Generated || a.Delivered != b.Delivered ||
			a.DeliveredCurrent != b.DeliveredCurrent || a.PRR != b.PRR || len(a.Reports) != len(b.Reports) {
			t.Fatalf("epoch %d: pruned %+v vs unpruned %+v", e+1, a, b)
		}
	}
	for i := range wantSnaps {
		if gotSnaps[i] != wantSnaps[i] {
			t.Fatalf("node %d final state differs with pruning off:\n got %+v\nwant %+v", i, gotSnaps[i], wantSnaps[i])
		}
	}
}

// TestDegradeLinkAfterCacheBuilt exercises fault injection against the
// dense link cache: degrading a child's parent link after the cache is
// built must actually attenuate the cached budget, showing up as a higher
// NOACK/retry rate on that child.
func TestDegradeLinkAfterCacheBuilt(t *testing.T) {
	n := newTestNetwork(t, 52)
	warmUp(t, n, 4)
	// Pick any node with a live parent.
	var child, parent packet.NodeID
	found := false
	for id := packet.NodeID(1); int(id) < n.NumNodes(); id++ {
		p, err := n.Parent(id)
		if err != nil {
			t.Fatalf("Parent: %v", err)
		}
		if int(p) < n.NumNodes() {
			child, parent = id, p
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no routed node after warm-up")
	}
	const epochs = 3
	before := n.nodes[child].ctr.noackRetransmit
	warmUp(t, n, epochs)
	healthyRate := n.nodes[child].ctr.noackRetransmit - before
	if err := n.DegradeLink(child, parent, 35); err != nil {
		t.Fatalf("DegradeLink: %v", err)
	}
	before = n.nodes[child].ctr.noackRetransmit
	warmUp(t, n, epochs)
	degradedRate := n.nodes[child].ctr.noackRetransmit - before
	if degradedRate <= healthyRate {
		t.Errorf("degraded link NOACK rate %d/epoch ≤ healthy %d/epoch; cache not invalidated?",
			degradedRate/epochs, healthyRate/epochs)
	}
}

// TestDegradeLinkUpdatesPrunedLists asserts that a degradation heavy enough
// to push a link below the reception bound also removes it from the
// beacon-phase candidate lists (and that pruning stays exact afterwards).
func TestDegradeLinkUpdatesPrunedLists(t *testing.T) {
	n := newTestNetwork(t, 53)
	inList := func(list []int, v int) bool {
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	if !inList(n.candidates[1], 2) {
		t.Fatal("adjacent grid nodes not candidates before degradation")
	}
	// 200 dB kills any budget this configuration can produce.
	if err := n.DegradeLink(1, 2, 200); err != nil {
		t.Fatalf("DegradeLink: %v", err)
	}
	if inList(n.candidates[1], 2) || inList(n.candidates[2], 1) {
		t.Error("dead link still in candidate lists")
	}
	if !inList(n.contenders[1], 2) {
		t.Error("contention neighborhood must not shrink on degradation")
	}
}

// TestNodeDownUpAfterCacheBuilt exercises node up/down events against the
// cached link state: transmissions toward a downed parent become pure NOACK
// failures, and delivery resumes after the reboot.
func TestNodeDownUpAfterCacheBuilt(t *testing.T) {
	topo, err := GridTopology(1, 3, 20)
	if err != nil {
		t.Fatalf("GridTopology: %v", err)
	}
	n, err := New(Config{Seed: 54, Topology: topo, ReportInterval: 3 * time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	warmUp(t, n, 4)
	before := n.nodes[2].ctr.noackRetransmit
	if err := n.FailNode(1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	warmUp(t, n, 2)
	if after := n.nodes[2].ctr.noackRetransmit; after <= before {
		t.Errorf("no NOACK retries toward downed parent: %d -> %d", before, after)
	}
	if err := n.RebootNode(1); err != nil {
		t.Fatalf("RebootNode: %v", err)
	}
	res := warmUp(t, n, 5)
	if last := res[len(res)-1]; last.DeliveredCurrent == 0 {
		t.Error("no delivery after the bridge rebooted")
	}
}

// TestStepSteadyStateAllocs guards the O(1) per-epoch allocation property:
// steady-state stepping must not grow per-RSSI maps or rebuild per-pass
// scratch. Reports are the only unavoidable per-epoch allocation.
func TestStepSteadyStateAllocs(t *testing.T) {
	topo, err := RandomTopology(120, 800, 17)
	if err != nil {
		t.Fatalf("RandomTopology: %v", err)
	}
	n, err := New(Config{Seed: 55, Topology: topo, PacketsPerEpoch: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	warmUp(t, n, 3)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := n.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	})
	// Reports (~120 nodes) plus C2 entry slices dominate; the bound fails
	// loudly if per-link map inserts (O(n·deg·packets)) ever come back.
	if avg > 2000 {
		t.Errorf("Step allocates %v objects/epoch at 120 nodes; want O(reports), not O(links)", avg)
	}
}
