package cluster

import (
	"sort"

	"github.com/wsn-tools/vn2/vn2/online"
)

// MergeEpochs combines per-shard epoch contribution exports into the fleet's
// per-epoch cause distributions, bit-identical to what one monitor fed
// every node would produce.
//
// Exactness argument: the ring partitions nodes across shards, so
// concatenating every shard's contributions for an epoch yields exactly the
// set one monitor would have held, and online.SumEpoch — the rule that
// monitor sums by — is a pure function of that set. Merging pre-summed
// per-shard distributions would not be: float addition is not associative.
func MergeEpochs(rank int, shards ...[]online.EpochState) []online.EpochCauses {
	byEpoch := make(map[int][]online.Contribution)
	for _, eps := range shards {
		for _, es := range eps {
			byEpoch[es.Epoch] = append(byEpoch[es.Epoch], es.Contribs...)
		}
	}
	out := make([]online.EpochCauses, 0, len(byEpoch))
	for epoch, contribs := range byEpoch {
		out = append(out, online.SumEpoch(epoch, rank, contribs))
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
