package online

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2"
)

// synthStates mirrors the vn2 package's training fixture: calm background
// with planted contention / loop / reboot archetypes.
func synthStates(n int, seed int64) []trace.StateVector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.StateVector, 0, n)
	for i := 0; i < n; i++ {
		delta := make([]float64, metricspec.MetricCount)
		for k := range delta {
			delta[k] = rng.NormFloat64() * 0.2
		}
		switch {
		case i%300 == 0:
			delta[metricspec.NOACKRetransmitCounter] += 300 + rng.Float64()*60
			delta[metricspec.MacBackoffCounter] += 200 + rng.Float64()*40
		case i%300 == 1:
			delta[metricspec.LoopCounter] += 40 + rng.Float64()*10
			delta[metricspec.DuplicateCounter] += 120 + rng.Float64()*30
			delta[metricspec.TransmitCounter] += 400 + rng.Float64()*80
		}
		out = append(out, trace.StateVector{
			Node:  packet.NodeID(1 + i%10),
			Epoch: 2 + i/10,
			Gap:   1,
			Delta: delta,
		})
	}
	return out
}

// testRig trains a model, freezes a detector, and hands back both plus a
// calm baseline vector and a delta that the detector reliably flags.
type testRig struct {
	model    *vn2.Model
	det      *trace.Detector
	baseline []float64
	hotDelta []float64
}

var (
	rigOnce sync.Once
	rig     testRig
	rigErr  error
)

func newRig(t testing.TB) testRig {
	t.Helper()
	rigOnce.Do(func() {
		states := synthStates(1500, 42)
		model, _, err := vn2.Train(states, vn2.TrainConfig{Rank: 4, Seed: 1})
		if err != nil {
			rigErr = err
			return
		}
		det, err := trace.NewDetector(states, 0)
		if err != nil {
			rigErr = err
			return
		}
		hot := make([]float64, metricspec.MetricCount)
		hot[metricspec.NOACKRetransmitCounter] = 320
		hot[metricspec.MacBackoffCounter] = 210
		if ex, _, err := det.Exceptional(hot); err != nil || !ex {
			rigErr = errors.New("fixture hot delta is not exceptional")
			return
		}
		rig = testRig{
			model:    model,
			det:      det,
			baseline: make([]float64, metricspec.MetricCount),
			hotDelta: hot,
		}
	})
	if rigErr != nil {
		t.Fatalf("rig: %v", rigErr)
	}
	return rig
}

// calm reports carry the flat baseline: consecutive calm reports derive a
// zero delta (normal). hot reports carry baseline + epoch·hotDelta, so a hot
// report following a hot report still derives exactly one hotDelta — the
// counters keep climbing, as a real contention storm's would.
func (r testRig) calm(node packet.NodeID, epoch int) trace.Record {
	v := make([]float64, len(r.baseline))
	copy(v, r.baseline)
	return trace.Record{Node: node, Epoch: epoch, Vector: v}
}

func (r testRig) hot(node packet.NodeID, epoch int) trace.Record {
	v := make([]float64, len(r.baseline))
	copy(v, r.baseline)
	for k, d := range r.hotDelta {
		v[k] += float64(epoch) * d
	}
	return trace.Record{Node: node, Epoch: epoch, Vector: v}
}

func newTestMonitor(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	r := newRig(t)
	if cfg.Model == nil {
		cfg.Model = r.model
	}
	if cfg.Detector == nil {
		cfg.Detector = r.det
	}
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	return m
}

func TestNewMonitorValidation(t *testing.T) {
	r := newRig(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil model", Config{Detector: r.det}},
		{"nil detector", Config{Model: r.model}},
		{"invalid detector", Config{Model: r.model, Detector: &trace.Detector{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMonitor(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestIngestLifecycle(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})

	// First report: no state derivable.
	obs, err := m.Ingest(r.calm(1, 10))
	if err != nil || !obs.First {
		t.Fatalf("first report: obs=%+v err=%v", obs, err)
	}
	// Exact retransmission: absorbed silently, not an error.
	obs, err = m.Ingest(r.calm(1, 10))
	if err != nil || !obs.Duplicate {
		t.Fatalf("exact duplicate: obs=%+v err=%v, want benign dedup", obs, err)
	}
	// Same epoch with a different vector is a conflict, not a duplicate.
	conflict := r.calm(1, 10)
	conflict.Vector[0] += 1
	if _, err := m.Ingest(conflict); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("conflicting epoch err = %v, want ErrStaleReport", err)
	}
	// Calm consecutive report: normal, gap 1.
	obs, err = m.Ingest(r.calm(1, 11))
	if err != nil || obs.First || obs.Flagged || obs.Gap != 1 {
		t.Fatalf("calm report: obs=%+v err=%v", obs, err)
	}
	// Report across a gap: gap tracked, still a valid state.
	obs, err = m.Ingest(r.calm(1, 15))
	if err != nil || obs.Gap != 4 {
		t.Fatalf("gap report: obs=%+v err=%v", obs, err)
	}
	// Hot report: flagged and queued.
	obs, err = m.Ingest(r.hot(1, 16))
	if err != nil || !obs.Flagged || obs.Score <= 0 {
		t.Fatalf("hot report: obs=%+v err=%v", obs, err)
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", m.Pending())
	}
	// Malformed vector.
	if _, err := m.Ingest(trace.Record{Node: 2, Epoch: 1, Vector: []float64{1}}); !errors.Is(err, trace.ErrVectorLength) {
		t.Fatalf("short vector err = %v", err)
	}

	st := m.Stats()
	if st.Reports != 7 || st.FirstReports != 1 || st.Stale != 1 || st.Duplicates != 1 || st.Invalid != 1 ||
		st.Normal != 2 || st.Flagged != 1 || st.GapReports != 1 || st.MaxGap != 4 || st.LastEpoch != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWarmPrimesDiffSlot(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{})
	if err := m.Warm(r.calm(3, 20)); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	// Warming again with an older epoch is stale.
	if err := m.Warm(r.calm(3, 20)); !errors.Is(err, ErrStaleReport) {
		t.Fatalf("stale warm err = %v", err)
	}
	// The first live report diffs against the warmed slot — not First.
	obs, err := m.Ingest(r.hot(3, 21))
	if err != nil || obs.First || !obs.Flagged {
		t.Fatalf("post-warm ingest: obs=%+v err=%v", obs, err)
	}
	if err := m.Warm(trace.Record{Node: 4, Epoch: 1, Vector: []float64{1}}); !errors.Is(err, trace.ErrVectorLength) {
		t.Fatalf("short warm err = %v", err)
	}
}

func TestDrainDiagnosesAndAggregates(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{Workers: 2})
	for node := packet.NodeID(1); node <= 5; node++ {
		if err := m.Warm(r.calm(node, 30)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ingest(r.hot(node, 31)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(out) != 5 {
		t.Fatalf("drained %d states, want 5", len(out))
	}
	for i, f := range out {
		if f.Diagnosis == nil {
			t.Fatalf("state %d has nil diagnosis", i)
		}
		if f.State.Node != packet.NodeID(i+1) {
			t.Errorf("state %d from node %d, want ingest order", i, f.State.Node)
		}
		if len(f.Diagnosis.Ranked) == 0 {
			t.Errorf("state %d: contention archetype produced no ranked causes", i)
		}
	}
	// Empty drain is a no-op.
	if out, err := m.Drain(); err != nil || out != nil {
		t.Fatalf("empty drain: out=%v err=%v", out, err)
	}

	sum := m.Snapshot()
	if sum.Pending != 0 || sum.Rank != r.model.Rank {
		t.Errorf("summary pending=%d rank=%d", sum.Pending, sum.Rank)
	}
	if len(sum.Epochs) != 1 || sum.Epochs[0].Epoch != 31 || sum.Epochs[0].States != 5 {
		t.Fatalf("epochs = %+v", sum.Epochs)
	}
	var total float64
	for _, v := range sum.Epochs[0].Distribution {
		total += v
	}
	if total <= 0 {
		t.Error("epoch distribution is all zero")
	}
	if len(sum.Recent) != 5 {
		t.Errorf("recent = %d, want 5", len(sum.Recent))
	}
	if st := m.Stats(); st.Diagnosed != 5 || st.Drains != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBacklogBoundAndDrop(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{MaxPending: 2})
	if err := m.Warm(r.calm(1, 1)); err != nil {
		t.Fatal(err)
	}
	for e := 2; e <= 3; e++ {
		if _, err := m.Ingest(r.hot(1, e)); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	obs, err := m.Ingest(r.hot(1, 4))
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("backlog err = %v, want ErrBacklog", err)
	}
	if !obs.Flagged {
		t.Error("dropped state should still be observed as flagged")
	}
	if st := m.Stats(); st.Dropped != 1 || st.Flagged != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Draining frees the backlog; ingest works again.
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(r.hot(1, 5)); err != nil {
		t.Fatalf("post-drain ingest: %v", err)
	}
}

func TestHistoryPruningAndRecentRing(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{History: 4, MaxRecent: 3})
	if err := m.Warm(r.calm(1, 0)); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 10; e++ {
		if _, err := m.Ingest(r.hot(1, e)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	sum := m.Snapshot()
	// Epochs ≤ 10-4 = 6 are pruned: 7..10 remain, ascending.
	if len(sum.Epochs) != 4 {
		t.Fatalf("epochs kept = %d, want 4 (%+v)", len(sum.Epochs), sum.Epochs)
	}
	for i, ec := range sum.Epochs {
		if ec.Epoch != 7+i {
			t.Errorf("epoch[%d] = %d, want %d", i, ec.Epoch, 7+i)
		}
	}
	if len(sum.Recent) != 3 {
		t.Fatalf("recent = %d, want 3", len(sum.Recent))
	}
	// Ring keeps the newest, oldest first.
	for i, f := range sum.Recent {
		if f.State.Epoch != 8+i {
			t.Errorf("recent[%d] epoch = %d, want %d", i, f.State.Epoch, 8+i)
		}
	}
}

// TestConcurrentIngestDrainSnapshot is the race-gate test: many goroutines
// ingesting distinct nodes while drains and snapshots run concurrently.
// Run under -race via `make race`.
func TestConcurrentIngestDrainSnapshot(t *testing.T) {
	r := newRig(t)
	m := newTestMonitor(t, Config{Workers: 2, MaxPending: 100000})
	const (
		nodes  = 8
		epochs = 60
	)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		node := packet.NodeID(n + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 1; e <= epochs; e++ {
				var rec trace.Record
				if e%5 == 0 {
					rec = r.hot(node, e)
				} else {
					rec = r.calm(node, e)
				}
				if _, err := m.Ingest(rec); err != nil {
					t.Errorf("node %d epoch %d: %v", node, e, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var drainWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := m.Drain(); err != nil {
					t.Errorf("drain: %v", err)
					return
				}
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	close(done)
	drainWG.Wait()
	// Final drain picks up stragglers.
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// Every hot report derives a hot delta (and the calm report after a hot
	// one derives the equally exceptional recovery delta), so at minimum the
	// hot epochs are flagged — the exact recovery count is not asserted.
	if min := uint64(nodes * (epochs / 5)); st.Flagged < min {
		t.Errorf("flagged = %d, want ≥ %d", st.Flagged, min)
	}
	if st.Diagnosed != st.Flagged || st.Dropped != 0 {
		t.Errorf("diagnosed=%d flagged=%d dropped=%d", st.Diagnosed, st.Flagged, st.Dropped)
	}
	if st.Reports != nodes*epochs {
		t.Errorf("reports = %d, want %d", st.Reports, nodes*epochs)
	}
}

// stormTrace is a seeded failure-window trace: every node reports most
// epochs, a third of the reports carry a contention archetype of varying
// strength, some a spike no archetype explains, and the last report is
// always flagged so every grouping below ends on the same LastEpoch.
func (r testRig) stormTrace(seed int64, nodes, epochs int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, nodes)
	for n := range vecs {
		vecs[n] = append([]float64(nil), r.baseline...)
	}
	var out []trace.Record
	for e := 1; e <= epochs; e++ {
		for n, v := range vecs {
			last := e == epochs && n == nodes-1
			if !last && rng.Float64() < 0.1 {
				continue // lost report: the next one spans a gap
			}
			for k := range v {
				v[k] += rng.NormFloat64() * 0.2
			}
			switch p := rng.Float64(); {
			case last || p < 0.3:
				scale := 0.5 + 1.5*rng.Float64()
				for k, d := range r.hotDelta {
					v[k] += scale * d
				}
			case p < 0.4:
				v[metricspec.BeaconCounter] += 500
				v[metricspec.NoParentCounter] += 400
			}
			out = append(out, trace.Record{Node: packet.NodeID(n + 1), Epoch: e, Vector: append([]float64(nil), v...)})
		}
	}
	return out
}

// TestDrainGroupingIndependent is what lets the sink drain whenever it
// likes, and stage whole batches ahead of their fsync: per-state diagnoses,
// the epoch distributions, the recent ring, the drift window and the
// quarantine are functions of the ordered set of flagged states, not of how
// Stage batched them or drains partitioned them — one drain per state, one
// every k states, one at the end, or a goroutine draining as fast as it can
// while the trace is still being ingested, all bit for bit the same. Every
// run is held to one whose states were all solved by the drain, the rule
// before Stage solved anything. The trace outruns History, MaxRecent and
// ResidualWindow, so the pruning and both rings are exercised. Stats.Drains
// is excluded: it counts the grouping itself.
func TestDrainGroupingIndependent(t *testing.T) {
	r := newRig(t)
	recs := r.stormTrace(7, 24, 80)

	type result struct {
		sum   Summary
		state MonitorState
		diag  []Flagged
	}
	type grouping struct {
		// every says when to drain, given the states flagged so far; nil
		// drains concurrently with the ingest.
		every func(flagged int) bool
		// batch is how many records one Stage takes; 0 ingests one by one.
		batch int
		// unsolved drops every staged diagnosis before the drain sees it.
		unsolved bool
	}
	// run ingests the trace as g says, and drains once more at the end.
	run := func(g grouping) result {
		m := newTestMonitor(t, Config{Workers: 2, MaxPending: len(recs)})
		for n := 1; n <= 24; n++ {
			if err := m.Warm(r.calm(packet.NodeID(n), 0)); err != nil {
				t.Fatal(err)
			}
		}
		var res result
		drain := func() {
			if g.unsolved {
				m.mu.Lock()
				for i := range m.pending {
					m.pending[i].diag = nil
				}
				m.mu.Unlock()
			}
			out, err := m.Drain()
			if err != nil {
				t.Error(err)
			}
			res.diag = append(res.diag, out...)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for g.every == nil {
				select {
				case <-stop:
					return
				default:
					drain()
				}
			}
		}()
		flagged := 0
		for rest := recs; len(rest) > 0; {
			var chunk []trace.Record
			if g.batch == 0 {
				chunk, rest = rest[:1], rest[1:]
				if ingestOK(t, m, chunk[0]).Flagged {
					flagged++
				}
			} else {
				chunk, rest = rest[:min(g.batch, len(rest))], rest[min(g.batch, len(rest)):]
				st := m.Stage(chunk)
				if taken, _ := m.Apply(st); taken != len(chunk) {
					t.Fatalf("a staged batch of %d took %d", len(chunk), taken)
				}
				for _, v := range st.out {
					if v.obs.Flagged {
						flagged++
					}
				}
			}
			if g.every != nil && g.every(flagged) {
				drain()
			}
		}
		close(stop)
		<-done
		drain()
		res.sum, res.state = m.Snapshot(), m.State()
		if res.sum.Stats.Dropped != 0 || int(res.sum.Stats.Diagnosed) != flagged || len(res.diag) != flagged {
			t.Fatalf("flagged %d, diagnosed %d, returned %d, dropped %d", flagged, res.sum.Stats.Diagnosed, len(res.diag), res.sum.Stats.Dropped)
		}
		staged, drained := m.Solves()
		if want := uint64(flagged); staged != want || g.unsolved && drained != want || !g.unsolved && drained != 0 {
			t.Fatalf("%d flagged: %d solved staged, %d in drains", flagged, staged, drained)
		}
		res.sum.Stats.Drains, res.state.Stats.Drains = 0, 0
		return res
	}

	never := func(int) bool { return false }
	base := run(grouping{every: never, unsolved: true})
	if n := len(base.diag); n <= 256 || len(base.sum.Epochs) != 64 || len(base.sum.Recent) != 128 ||
		base.sum.Drift.Window != 256 || base.sum.Drift.Quarantine == 0 {
		t.Fatalf("trace too small to exercise the rings: %d flagged, %d epochs, %d recent, drift %+v",
			n, len(base.sum.Epochs), len(base.sum.Recent), base.sum.Drift)
	}
	for name, g := range map[string]grouping{
		"staged one by one, one drain": {every: never},
		"a drain per state":            {every: func(int) bool { return true }},
		"a drain every 7 states":       {every: func(n int) bool { return n%7 == 0 }},
		"drains racing the trace":      {},
		"staged 64 at a time":          {every: func(n int) bool { return n%7 == 0 }, batch: 64},
		"staged, drains racing":        {batch: 64},
	} {
		got := run(g)
		if !reflect.DeepEqual(got.diag, base.diag) {
			t.Errorf("%s: diagnoses differ from the single drain's", name)
		}
		if !reflect.DeepEqual(got.sum, base.sum) {
			t.Errorf("%s: Snapshot differs from the single drain's", name)
		}
		if !reflect.DeepEqual(got.state, base.state) {
			t.Errorf("%s: State differs from the single drain's", name)
		}
	}
}

// TestSwapBetweenStageAndDrain: a flagged state is diagnosed under the model
// serving when the drain runs, as it was before Stage solved anything. A
// swap after Apply leaves the staged diagnoses stale, and the drain solves
// the states again; a swap between Stage and Apply makes Apply classify the
// batch again, with nothing solved. Either way every diagnosis equals
// Model.Diagnose under the drain's model, and so does its drift sample.
func TestSwapBetweenStageAndDrain(t *testing.T) {
	r := newRig(t)
	other, _, err := vn2.Train(synthStates(600, 9), vn2.TrainConfig{Rank: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, swapBeforeApply := range []bool{false, true} {
		m := newTestMonitor(t, Config{Workers: 2})
		var batch []trace.Record
		for n := packet.NodeID(1); n <= 6; n++ {
			if err := m.Warm(r.calm(n, 10)); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, r.hot(n, 11), r.calm(n, 12))
		}
		st := m.Stage(batch)
		if staged, _ := m.Solves(); staged == 0 {
			t.Fatal("Stage solved no flagged state")
		}
		if swapBeforeApply {
			if err := m.SwapModel(2, other); err != nil {
				t.Fatal(err)
			}
		}
		if taken, pending := m.Apply(st); taken != len(batch) || pending != 12 {
			t.Fatalf("swap before Apply %v: took %d of %d, %d pending; want all, 12", swapBeforeApply, taken, len(batch), pending)
		}
		if !swapBeforeApply {
			if err := m.SwapModel(2, other); err != nil {
				t.Fatal(err)
			}
		}
		out, err := m.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if _, drained := m.Solves(); drained != uint64(len(out)) {
			t.Errorf("swap before Apply %v: the drain solved %d of %d states", swapBeforeApply, drained, len(out))
		}
		var rel float64
		for _, f := range out {
			want, err := other.Diagnose(f.State)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(f.Diagnosis, want) {
				t.Errorf("swap before Apply %v: node %d epoch %d: %+v, want %+v", swapBeforeApply, f.State.Node, f.State.Epoch, f.Diagnosis, want)
			}
			rel += RelResidual(other, f.State.Delta, want.Residual)
		}
		if ds := m.DriftStats(); ds.ModelVersion != 2 || ds.Window != len(out) || ds.MeanResidual != rel/float64(len(out)) {
			t.Errorf("swap before Apply %v: drift %+v, want %d samples under v2, mean %v", swapBeforeApply, ds, len(out), rel/float64(len(out)))
		}
	}
}

// TestStagedInAnyOrder: Stage and Apply give what Ingest of the same records
// in Apply order gives, however the calls interleave. A node may report
// more than once in one staged batch, and a report applied between a
// batch's Stage and its Apply moves the base the batch was classified
// against: Apply classifies it again.
func TestStagedInAnyOrder(t *testing.T) {
	r := newRig(t)
	warm := func(m *Monitor) {
		for n := packet.NodeID(1); n <= 3; n++ {
			if err := m.Warm(r.calm(n, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	early := []trace.Record{r.calm(2, 11)}
	batch := []trace.Record{r.hot(1, 12), r.calm(1, 13), r.hot(2, 12), r.calm(2, 12), r.hot(3, 11)}

	want := newTestMonitor(t, Config{})
	warm(want)
	for _, rec := range append(early, batch...) {
		_, _ = want.Ingest(rec)
	}
	got := newTestMonitor(t, Config{})
	warm(got)
	st := got.Stage(batch)
	for _, rec := range early {
		_, _ = got.Ingest(rec)
	}
	got.Apply(st)
	for _, m := range []*Monitor{want, got} {
		if _, err := m.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if w, g := want.State(), got.State(); !reflect.DeepEqual(g, w) {
		t.Errorf("staged across an Ingest: state\n%+v\nwant\n%+v", g.Stats, w.Stats)
	}
	if w, g := want.Snapshot(), got.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Errorf("staged across an Ingest: summary differs")
	}
}
