package cluster

import (
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
)

// TestRingDeterministic pins that the ring is a pure function of
// (seed, shards, vnodes): two independently built rings — standing in for
// two processes, or one process across a restart — agree on every owner.
func TestRingDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		for _, shards := range []int{1, 2, 3, 5, 8} {
			a := NewRing(seed, shards, 0)
			b := NewRing(seed, shards, 0)
			for n := 0; n < 4096; n++ {
				id := packet.NodeID(n)
				if a.Owner(id) != b.Owner(id) {
					t.Fatalf("seed=%d shards=%d node=%d: owners differ across builds (%d vs %d)",
						seed, shards, n, a.Owner(id), b.Owner(id))
				}
			}
		}
	}
}

// TestRingSeedsDiffer sanity-checks that the seed actually matters: two
// different seeds must not produce identical ownership over a large node
// population (for shards >= 2, where ownership can vary at all).
func TestRingSeedsDiffer(t *testing.T) {
	a := NewRing(1, 4, 0)
	b := NewRing(2, 4, 0)
	same := 0
	const N = 4096
	for n := 0; n < N; n++ {
		if a.Owner(packet.NodeID(n)) == b.Owner(packet.NodeID(n)) {
			same++
		}
	}
	if same == N {
		t.Fatalf("seeds 1 and 2 yield identical ownership for all %d nodes", N)
	}
}

// TestRingOwnerInRange pins that every owner is a valid shard index and
// that each shard owns at least one node at realistic populations (no
// empty shard / ring gap bug).
func TestRingOwnerInRange(t *testing.T) {
	const shards = 4
	r := NewRing(42, shards, 0)
	seen := make([]int, shards)
	for n := 0; n < 4096; n++ {
		s := r.Owner(packet.NodeID(n))
		if s < 0 || s >= shards {
			t.Fatalf("node %d: owner %d out of range [0,%d)", n, s, shards)
		}
		seen[s]++
	}
	for s, c := range seen {
		if c == 0 {
			t.Fatalf("shard %d owns no nodes out of 4096", s)
		}
	}
}

// TestRingRebalanceBound pins the consistent-hashing contract: growing
// the ring from k to k+1 shards moves roughly 1/(k+1) of the node IDs —
// only nodes claimed by the new shard's vnode points change owner, and
// every node that stays on an old shard keeps its exact owner.
func TestRingRebalanceBound(t *testing.T) {
	const N = 8192
	for _, k := range []int{2, 3, 4, 7} {
		old := NewRing(9, k, 0)
		grown := NewRing(9, k+1, 0)
		moved := 0
		for n := 0; n < N; n++ {
			id := packet.NodeID(n)
			a, b := old.Owner(id), grown.Owner(id)
			if a == b {
				continue
			}
			// A move is only legal toward the new shard: old points are a
			// subset of the grown ring, so surviving owners never change.
			if b != k {
				t.Fatalf("k=%d node=%d moved %d -> %d (not the new shard)", k, n, a, b)
			}
			moved++
		}
		frac := float64(moved) / N
		want := 1.0 / float64(k+1)
		// Allow 2x slack over the expectation: vnode placement variance is
		// real at 64 vnodes, but 2x still catches an O(1) rebalance bug
		// (naive modulo hashing would move ~k/(k+1) of the nodes).
		if frac > 2*want {
			t.Fatalf("k=%d: moved %.3f of nodes, want <= ~1/%d (2x slack = %.3f)",
				k, frac, k+1, 2*want)
		}
		if moved == 0 {
			t.Fatalf("k=%d: no nodes moved to the new shard", k)
		}
	}
}
