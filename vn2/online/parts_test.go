package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

// mustMatchReference holds a monitor whose reads settle its epochs to ref, a
// twin fed the same ops that is never read through EpochParts and so never
// settles one: parts, Snapshot and State must be bit-equal. It also holds the
// one-form rule: after a read of the parts, only the newest epoch may still
// hold its contributions.
func mustMatchReference(t *testing.T, m, ref *Monitor, after string) {
	t.Helper()
	_, parts, err := m.EpochParts()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Epochs []EpochState `json:"epochs"`
	}{ref.EpochStates()})
	if err != nil {
		t.Fatal(err)
	}
	if got := joinParts(parts); !bytes.Equal(got, want) {
		t.Fatalf("after %s: parts differ from a never-settled twin's structs\n got %.200s\nwant %.200s", after, got, want)
	}
	for name, read := range map[string]func(*Monitor) any{
		"Snapshot()": func(m *Monitor) any { return m.Snapshot() },
		"State()":    func(m *Monitor) any { return m.State() },
	} {
		got, err1 := json.Marshal(read(m))
		want, err2 := json.Marshal(read(ref))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %s: %s differs from a never-settled twin's\n got %.300s\nwant %.300s", after, name, got, want)
		}
	}
	mustHoldOnce(t, m, after)
}

// mustHoldOnce requires every epoch but the newest to be held as its part
// alone after a read of the parts, and the newest to keep its structs, so a
// drain into it never decodes.
func mustHoldOnce(t *testing.T, m *Monitor, after string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ec := range m.epochs {
		switch newest := ec.epoch == m.stats.LastEpoch; {
		case !newest && ec.contribs != nil:
			t.Fatalf("after %s: epoch %d (newest %d) is held as %d structs and as its part", after, ec.epoch, m.stats.LastEpoch, len(ec.contribs))
		case newest && ec.settled() && ec.sum.States > 0:
			t.Fatalf("after %s: the newest epoch %d is settled: a drain into it would decode", after, ec.epoch)
		}
	}
}

// settledEpochs lists the epochs m holds as their part alone.
func settledEpochs(m *Monitor) map[int]*epochAcc {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]*epochAcc)
	for e, ec := range m.epochs {
		if ec.settled() {
			out[e] = ec
		}
	}
	return out
}

// TestEpochPartsMatchStructsUnderAnyInterleaving drives a seeded random
// script of everything that can change an epoch's contributions — drains in
// any grouping, handoff imports and drops, a restore onto the same and onto
// a fresh monitor, and the roll-over past History — and checks the parts
// after every single op. A part that outlives a change to its epoch (drop
// one `part = nil`) fails here within a few ops. Every op also runs on a
// twin that is never read through EpochParts, whose epochs therefore never
// settle: merging into, importing into, dropping from and exporting a
// settled epoch must all give the twin's bytes. The script must have done
// each of those to a settled epoch at least once.
func TestEpochPartsMatchStructsUnderAnyInterleaving(t *testing.T) {
	r := newRig(t)
	const nodes = 12
	opened := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{History: 8, Workers: 1}
		m, ref := newTestMonitor(t, cfg), newTestMonitor(t, cfg)
		both := func(f func(m *Monitor)) { f(m); f(ref) }
		recs := r.stormTrace(seed, nodes, 40)
		ops := 0
		for len(recs) > 0 {
			var op, kind string
			settled := settledEpochs(m)
			switch p := rng.Intn(20); {
			case p < 9:
				k := min(1+rng.Intn(2*nodes), len(recs))
				for _, rec := range recs[:k] {
					both(func(m *Monitor) { m.Ingest(rec) }) // a dropped node's next report is a first one, a restored one may be stale: all fine
				}
				recs = recs[k:]
				op = fmt.Sprintf("ingest of %d", k)
			case p < 14:
				both(func(m *Monitor) {
					if _, err := m.Drain(); err != nil {
						t.Fatal(err)
					}
				})
				op, kind = "drain", "merge"
			case p < 16:
				// A peer's slice: a foreign node's contribution to one retained
				// (or long pruned) epoch, next to the local ones.
				last := m.Stats().LastEpoch
				e, node := max(1, last-rng.Intn(10)), packet.NodeID(100+rng.Intn(5))
				var causes []vn2.RankedCause // nil for a state no cause explains
				if rng.Intn(4) > 0 {
					causes = []vn2.RankedCause{{Cause: rng.Intn(r.model.Rank), Strength: rng.Float64()}}
				}
				both(func(m *Monitor) {
					err := m.ImportNodes(NodeSlice{
						Nodes:  []NodeState{{Node: node, Epoch: e, Vector: r.baseline}},
						Epochs: []EpochState{{Epoch: e, Contribs: []Contribution{{Node: node, Causes: causes}}}},
					})
					if err != nil {
						t.Fatal(err)
					}
				})
				op, kind = fmt.Sprintf("import of node %d into epoch %d", node, e), "import"
			case p < 18:
				drop := []packet.NodeID{packet.NodeID(1 + rng.Intn(nodes)), packet.NodeID(100 + rng.Intn(5))}
				both(func(m *Monitor) { m.DropNodes(drop) })
				op, kind = fmt.Sprintf("drop of %v", drop), "drop"
			case p < 19:
				both(func(m *Monitor) {
					if err := m.Restore(m.State()); err != nil {
						t.Fatal(err)
					}
				})
				op, kind = "restore in place", "export"
			default:
				next := func(m *Monitor) *Monitor {
					st := m.State()
					m = newTestMonitor(t, cfg)
					if err := m.Restore(st); err != nil {
						t.Fatal(err)
					}
					return m
				}
				m, ref = next(m), next(ref)
				op, kind = "restore onto a fresh monitor", "export"
			}
			if kind == "export" {
				opened[kind] += len(settled)
			} else if kind != "" {
				m.mu.Lock()
				for e, ec := range settled {
					if m.epochs[e] == ec && !ec.settled() {
						opened[kind]++ // the op changed a settled epoch
					}
				}
				m.mu.Unlock()
			}
			ops++
			where := fmt.Sprintf("seed %d op %d (%s)", seed, ops, op)
			mustMatchStructs(t, m, where)
			mustMatchReference(t, m, ref, where)
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
	for _, kind := range []string{"merge", "import", "drop", "export"} {
		if opened[kind] == 0 {
			t.Errorf("no %s reached a settled epoch: the script does not test it", kind)
		}
	}
	t.Logf("settled epochs reached: %v", opened)

	// A node listed twice in one epoch (two peers' slices naming it, say)
	// keeps its place: 48 contributions in scrambled node order, so the sort
	// is not the insertion sort a short slice gets, settled, then one more.
	cfg := Config{Workers: 1}
	m, ref := newTestMonitor(t, cfg), newTestMonitor(t, cfg)
	rng := rand.New(rand.NewSource(9))
	slice := func(n int) NodeSlice {
		var cs []Contribution
		for i := 0; i < n; i++ {
			cs = append(cs, Contribution{Node: packet.NodeID(1 + rng.Intn(8)), Causes: []vn2.RankedCause{{Cause: rng.Intn(r.model.Rank), Strength: rng.Float64()}}})
		}
		return NodeSlice{Epochs: []EpochState{{Epoch: 1, Contribs: cs}, {Epoch: 2, Contribs: cs[:1]}}}
	}
	for i, n := range []int{48, 1, 30} {
		sl := slice(n)
		for _, m := range []*Monitor{m, ref} {
			if err := m.ImportNodes(sl); err != nil {
				t.Fatal(err)
			}
		}
		mustMatchReference(t, m, ref, fmt.Sprintf("import %d of %d contributions naming 8 nodes", i, n))
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

// TestSettledEpochsHeldOnce pins what settling is for. After a storm and one
// read of the parts, every epoch but the newest is held as its rendered part
// alone, and a full 64-epoch window's live heap shows it: the same monitor
// holding each diagnosed epoch twice, as structs and as JSON, is over the
// ceiling.
func TestSettledEpochsHeldOnce(t *testing.T) {
	r := newRig(t)
	var ms runtime.MemStats
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // and what sync.Pools kept through the first
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	m := newTestMonitor(t, Config{Workers: 1})
	recs := r.stormTrace(7, 160, 70)
	for len(recs) > 0 {
		k := min(len(recs), 800)
		for _, rec := range recs[:k] {
			m.Ingest(rec)
		}
		if _, err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		recs = recs[k:]
	}
	_, parts, err := m.EpochParts()
	if err != nil || len(parts) != 64 {
		t.Fatalf("%d parts, err %v: want a full 64-epoch window", len(parts), err)
	}
	var partBytes uint64
	for _, p := range parts {
		partBytes += uint64(len(p))
	}
	// The recent ring, the quarantine and the drift window have fixed
	// bounds and hold no epoch; empty them so the heap is the epochs'.
	m.mu.Lock()
	m.recent, m.quar, m.residuals = nil, nil, nil
	m.mu.Unlock()
	heap := live() - base
	st := m.Stats()
	t.Logf("%d states diagnosed, parts %d bytes, live heap %d bytes (%.2f× the parts)",
		st.Diagnosed, partBytes, heap, float64(heap)/float64(partBytes))
	// Held once, the parts are most of the heap (≈1.3× them here; the rest
	// is the nodes' diff slots and the maps). Held twice, one more 1×.
	if heap > 2*partBytes {
		t.Errorf("a 64-epoch storm monitor holds %d live heap bytes, over twice its %d bytes of parts", heap, partBytes)
	}
	mustHoldOnce(t, m, "a storm and one read")
	runtime.KeepAlive(m)
}
