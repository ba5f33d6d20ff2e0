package cluster

import (
	"sort"

	"github.com/wsn-tools/vn2/vn2/online"
)

// MergeEpochs combines per-shard epoch contribution exports into the fleet's
// per-epoch cause distributions, bit-identical to what one monitor fed
// every node would produce.
//
// Exactness argument: a single monitor computes an epoch's distribution by
// sorting that epoch's per-node Contributions ascending by node and summing
// their cause strengths in that order (online.epochAcc.causes). Float
// addition is not associative, so merging pre-summed per-shard
// distributions would NOT reproduce those bits. Merging at the Contribution
// level does: the ring partitions nodes across shards, so concatenating
// every shard's contributions for an epoch yields exactly the set the
// single monitor had, and re-sorting by node recovers exactly its
// summation order. The sum is then the same sequence of float additions.
//
// The repo's ingest path derives at most one diagnosed state per (node,
// epoch) — a node reports once per epoch and duplicates/stale reports are
// absorbed — so ties in the node sort do not arise and the sort order is
// total. SliceStable keeps the merge well-defined even if a future caller
// feeds it duplicated nodes.
func MergeEpochs(rank int, shards ...[]online.EpochState) []online.EpochCauses {
	byEpoch := make(map[int][]online.Contribution)
	for _, eps := range shards {
		for _, es := range eps {
			byEpoch[es.Epoch] = append(byEpoch[es.Epoch], es.Contribs...)
		}
	}
	out := make([]online.EpochCauses, 0, len(byEpoch))
	for epoch, contribs := range byEpoch {
		sort.SliceStable(contribs, func(i, j int) bool { return contribs[i].Node < contribs[j].Node })
		ec := online.EpochCauses{Epoch: epoch, States: len(contribs), Distribution: make([]float64, rank)}
		for _, c := range contribs {
			for _, rc := range c.Causes {
				if rc.Cause >= 0 && rc.Cause < rank {
					ec.Distribution[rc.Cause] += rc.Strength
				}
			}
		}
		out = append(out, ec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// FilterOwned keeps only the contributions of nodes the ring assigns to
// shard, dropping whole epochs that end up empty. The fleet merge runs
// every shard's export through this before MergeEpochs: a node mid-handoff
// can transiently have state on BOTH its old and new shard (import lands
// before release — the at-least-once direction), and ownership filtering
// makes that duplication invisible to the merged view.
func FilterOwned(r *Ring, shard int, eps []online.EpochState) []online.EpochState {
	out := make([]online.EpochState, 0, len(eps))
	for _, es := range eps {
		kept := make([]online.Contribution, 0, len(es.Contribs))
		for _, c := range es.Contribs {
			if r.Owner(c.Node) == shard {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			out = append(out, online.EpochState{Epoch: es.Epoch, Contribs: kept})
		}
	}
	return out
}
