package cluster

import (
	"sort"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/rng"
)

// Domain separators keep vnode point hashes and node hashes in unrelated
// streams even when a shard index happens to equal a node ID.
const (
	ringPointDomain = 0x766e6f6465 // "vnode"
	ringNodeDomain  = 0x6e6f6465   // "node"
)

// defaultVnodes is the virtual-node count per shard. 64 vnodes keeps the
// max/min shard load ratio within ~20% for uniform node populations while
// the ring stays small enough to rebuild on every topology change. It is a
// constant, not a router setting: every party that derives the partition
// must use the same count, so a second value could only break routing.
const defaultVnodes = 64

// Ring is a consistent-hash ring over node IDs. It is a pure function of
// (seed, shards, vnodes): rebuilding the same tuple in any process yields
// the same ownership map, so the router, the shards, and the chaos
// harness can each derive the partition independently. Adding a shard
// only inserts that shard's vnode points, so existing nodes either keep
// their owner or move to the new shard — the expected moved fraction is
// 1/(k+1) when growing k shards to k+1.
//
// A Ring is immutable after NewRing and safe for concurrent use.
type Ring struct {
	seed   uint64
	shards int
	points []ringPoint // sorted ascending by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for the given seed and shard count. vnodes <= 0
// selects defaultVnodes. shards must be >= 1.
func NewRing(seed uint64, shards, vnodes int) *Ring {
	if shards < 1 {
		panic("cluster: NewRing needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &Ring{
		seed:   seed,
		shards: shards,
		points: make([]ringPoint, 0, shards*vnodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := rng.Key(seed, ringPointDomain, rng.I(s), rng.I(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	// Ties (astronomically rare 64-bit collisions) break toward the lower
	// shard index so ownership stays deterministic across builds.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return r
}

// Shards returns the shard count the ring was built with.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning the given node ID: the shard of
// the first vnode point at or clockwise of the node's hash.
func (r *Ring) Owner(node packet.NodeID) int {
	h := rng.Key(r.seed, ringNodeDomain, uint64(node))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point back to the first
	}
	return r.points[i].shard
}
