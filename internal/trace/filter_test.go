package trace

import "testing"

func filterFixture() []StateVector {
	return []StateVector{
		{Node: 1, Epoch: 1, Delta: vec(0)},
		{Node: 2, Epoch: 1, Delta: vec(0)},
		{Node: 1, Epoch: 2, Delta: vec(0)},
		{Node: 3, Epoch: 3, Delta: vec(0)},
		{Node: 1, Epoch: 4, Delta: vec(0)},
	}
}

func TestGroupByEpoch(t *testing.T) {
	groups := GroupByEpoch(filterFixture())
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	if len(groups[1]) != 2 {
		t.Errorf("epoch 1 has %d states, want 2", len(groups[1]))
	}
	if len(groups[4]) != 1 {
		t.Errorf("epoch 4 has %d states, want 1", len(groups[4]))
	}
}
