package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/vn2"
)

// joinParts assembles EpochParts the way both of its readers do.
func joinParts(parts [][]byte) []byte {
	return append(append([]byte(`{"epochs":[`), bytes.Join(parts, []byte(","))...), "]}"...)
}

// mustMatchStructs requires the rendered parts to be, byte for byte, what
// marshalling EpochStates gives — the oracle for the one piece of state the
// read plane adds.
func mustMatchStructs(t *testing.T, m *Monitor, after string) {
	t.Helper()
	_, parts, err := m.EpochParts()
	if err != nil {
		t.Fatalf("after %s: EpochParts: %v", after, err)
	}
	want, err := json.Marshal(struct {
		Epochs []EpochState `json:"epochs"`
	}{m.EpochStates()})
	if err != nil {
		t.Fatal(err)
	}
	if got := joinParts(parts); !bytes.Equal(got, want) {
		t.Fatalf("after %s: rendered parts differ from json.Marshal(EpochStates())\n got %.200s\nwant %.200s", after, got, want)
	}
}

// TestEpochPartsMatchStructsUnderAnyInterleaving drives a seeded random
// script of everything that can change an epoch's contributions — drains in
// any grouping, handoff imports and drops, a restore onto the same and onto
// a fresh monitor, and the roll-over past History — and checks the parts
// after every single op. A part that outlives a change to its epoch (drop
// one `part = nil`) fails here within a few ops.
func TestEpochPartsMatchStructsUnderAnyInterleaving(t *testing.T) {
	r := newRig(t)
	const nodes = 12
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{History: 8, Workers: 1}
		m := newTestMonitor(t, cfg)
		recs := r.stormTrace(seed, nodes, 40)
		ops := 0
		for len(recs) > 0 {
			var op string
			switch p := rng.Intn(20); {
			case p < 9:
				k := min(1+rng.Intn(2*nodes), len(recs))
				for _, rec := range recs[:k] {
					m.Ingest(rec) // a dropped node's next report is a first one, a restored one may be stale: all fine
				}
				recs = recs[k:]
				op = fmt.Sprintf("ingest of %d", k)
			case p < 14:
				if _, err := m.Drain(); err != nil {
					t.Fatal(err)
				}
				op = "drain"
			case p < 16:
				// A peer's slice: a foreign node's contribution to one retained
				// (or long pruned) epoch, next to the local ones.
				last := m.Stats().LastEpoch
				e, node := max(1, last-rng.Intn(10)), packet.NodeID(100+rng.Intn(5))
				var causes []vn2.RankedCause // nil for a state no cause explains
				if rng.Intn(4) > 0 {
					causes = []vn2.RankedCause{{Cause: rng.Intn(r.model.Rank), Strength: rng.Float64()}}
				}
				err := m.ImportNodes(NodeSlice{
					Nodes:  []NodeState{{Node: node, Epoch: e, Vector: r.baseline}},
					Epochs: []EpochState{{Epoch: e, Contribs: []Contribution{{Node: node, Causes: causes}}}},
				})
				if err != nil {
					t.Fatal(err)
				}
				op = fmt.Sprintf("import of node %d into epoch %d", node, e)
			case p < 18:
				drop := []packet.NodeID{packet.NodeID(1 + rng.Intn(nodes)), packet.NodeID(100 + rng.Intn(5))}
				m.DropNodes(drop)
				op = fmt.Sprintf("drop of %v", drop)
			case p < 19:
				if err := m.Restore(m.State()); err != nil {
					t.Fatal(err)
				}
				op = "restore in place"
			default:
				st := m.State()
				m = newTestMonitor(t, cfg)
				if err := m.Restore(st); err != nil {
					t.Fatal(err)
				}
				op = "restore onto a fresh monitor"
			}
			ops++
			mustMatchStructs(t, m, fmt.Sprintf("seed %d op %d (%s)", seed, ops, op))
		}
		if n := len(m.EpochStates()); n == 0 || n > cfg.History+1 {
			t.Fatalf("seed %d: %d epochs retained: the script did not roll the window over", seed, n)
		}
		// What the cache is for: a read with nothing changed renders nothing.
		before := m.EpochsRendered()
		mustMatchStructs(t, m, "an idle re-read")
		if got := m.EpochsRendered() - before; got != 0 {
			t.Fatalf("seed %d: an idle re-read rendered %d epochs", seed, got)
		}
	}
}

// TestIdleReadRendersNothing pins the cost of a view nobody changed, with
// no clock: no epoch rendered, and a handful of allocations (the two
// slices that order the parts) however many epochs are retained.
func TestIdleReadRendersNothing(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{Workers: 1})
	for _, rec := range r.stormTrace(3, 24, 70) {
		m.Ingest(rec)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	_, parts, err := m.EpochParts()
	if err != nil || len(parts) < 60 {
		t.Fatalf("%d parts, err %v: want a full window", len(parts), err)
	}
	if got := m.EpochsRendered(); got != uint64(len(parts)) {
		t.Fatalf("first read rendered %d epochs, want %d", got, len(parts))
	}
	allocs := testing.AllocsPerRun(20, func() { m.EpochParts() })
	if got := m.EpochsRendered(); got != uint64(len(parts)) {
		t.Fatalf("idle reads rendered %d more epochs", got-uint64(len(parts)))
	}
	if allocs > 8 {
		t.Fatalf("an idle read allocates %.0f objects, want at most 8", allocs)
	}
	// One more drain touches one epoch: one render, not the window.
	last := m.Stats().LastEpoch
	m.Ingest(r.hot(1, last+1))
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	mustMatchStructs(t, m, "a one-state drain")
	if got := m.EpochsRendered() - uint64(len(parts)); got != 1 {
		t.Fatalf("a drain of one state made the next read render %d epochs, want 1", got)
	}
}

// TestCaptureIsOneInstant races drains against Capture: every capture must
// be a state some single moment had — a flagged state is in Pending or in an
// epoch's contributions, never both (a restore would diagnose it twice) and
// never neither — and its parts must be its epochs. Run under -race it is
// also the read plane's concurrency test: several readers share the parts
// while drains replace them.
func TestCaptureIsOneInstant(t *testing.T) {
	r := newRig(t)
	recs := r.stormTrace(5, 24, 40)
	m := newTestMonitor(t, Config{Workers: 1, MaxPending: len(recs)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ { // view readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, parts, err := m.EpochParts(); err != nil || !json.Valid(joinParts(parts)) {
						t.Errorf("reader: err %v or invalid JSON", err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // the drain loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.Drain(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	captures := 0
	check := func() {
		c, err := m.Capture()
		if err != nil {
			t.Fatal(err)
		}
		captures++
		var doc struct {
			Epochs []EpochState `json:"epochs"`
		}
		if err := json.Unmarshal(joinParts(c.EpochParts), &doc); err != nil {
			t.Fatal(err)
		}
		diagnosed := 0
		for _, es := range doc.Epochs {
			diagnosed += len(es.Contribs)
		}
		st := c.State.Stats
		if c.State.Epochs != nil || !reflect.DeepEqual(c.Summary.Stats, st) || c.Summary.Pending != len(c.State.Pending) {
			t.Fatalf("capture %d: summary and state are of different instants: %+v / %+v, pending %d / %d",
				captures, c.Summary.Stats, st, c.Summary.Pending, len(c.State.Pending))
		}
		// No epoch is pruned in 40 epochs of a 64-epoch window.
		if got := uint64(len(c.State.Pending) + diagnosed); got != st.Flagged || uint64(diagnosed) != st.Diagnosed {
			t.Fatalf("capture %d: %d pending + %d in epochs, but %d flagged and %d diagnosed",
				captures, len(c.State.Pending), diagnosed, st.Flagged, st.Diagnosed)
		}
	}
	for i, rec := range recs {
		m.Ingest(rec)
		if i%20 == 0 {
			check()
		}
	}
	close(stop)
	wg.Wait()
	check()
}
