package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/online"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {290, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestScheduleAndLateAccounting(t *testing.T) {
	s := newSchedule(6400, 1) // one 64-report batch every 10 ms
	if s.period != 10*time.Millisecond {
		t.Fatalf("period = %v, want 10ms", s.period)
	}
	if p := newSchedule(6400, 2).period; p != 20*time.Millisecond {
		t.Fatalf("period on two connections = %v, want 20ms", p)
	}
	for _, c := range []struct {
		i       int
		elapsed time.Duration
		wait    time.Duration
		late    int
	}{
		{0, 0, 0, 0},
		{1, 3 * time.Millisecond, 7 * time.Millisecond, 0},   // early: sleep to the due instant
		{2, 29 * time.Millisecond, 0, 0},                     // the previous ACK was slow, but within one period
		{3, 41 * time.Millisecond, 0, 1},                     // more than a period overdue
		{4, 40 * time.Millisecond, 0, 1},                     // due exactly now
		{5, 39 * time.Millisecond, 11 * time.Millisecond, 1}, // caught up: paced again
	} {
		if got := s.wait(c.i, c.elapsed); got != c.wait {
			t.Errorf("wait(%d, %v) = %v, want %v", c.i, c.elapsed, got, c.wait)
		}
		if s.late != c.late {
			t.Errorf("after batch %d: late = %d, want %d", c.i, s.late, c.late)
		}
	}
	if s.sends != 6 {
		t.Errorf("sends = %d, want 6", s.sends)
	}
}

func TestLagSamples(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Batches 0..4 are ACKed at 100, 110, 50, 300 and 320 ms; the warm-up
	// ends at 80 ms, so batch 2 does not count.
	ackedAt := []time.Duration{ms(100), ms(110), ms(50), ms(300), ms(320)}
	ref := &reference{flagged: map[sinkEpoch][]int{
		{0, 7}: {0, 1, 3}, // one flagged report each in batches 0, 1 and 3
		{0, 8}: {3, 4},    // batch 3 straddles two epochs
		{1, 8}: {2},       // on the other sink, before the warm-up ended
		{0, 9}: {4, 4},    // two reports of batch 4, only one ever announced
	}}
	observers := []*sseObserver{
		{diag: map[int][]diagEvent{
			7: {{at(130), 2}, {at(135), 2}, {at(340), 3}}, // the repeat announces nothing new
			8: {{at(390), 2}},
			9: {{at(350), 1}},
		}},
		{diag: map[int][]diagEvent{8: {{at(90), 1}}}},
	}
	lags, missing := lagSamples(ref, ackedAt, observers, start, ms(80))
	sort.Float64s(lags)
	// Batch 0: 130−100. Batch 1: 130−110. Batch 3: its epoch-7 report is
	// announced at 340, its epoch-8 report at 390, so 390−300. Batch 4 has a
	// report that is never announced: no sample, one missing.
	if want := []float64{20, 30, 90}; !reflect.DeepEqual(lags, want) {
		t.Errorf("lags = %v, want %v", lags, want)
	}
	if missing != 1 {
		t.Errorf("missing = %d, want 1 (half of epoch 9)", missing)
	}
}

// tinyDataset is 3 nodes over 5 epochs with one report lost.
func tinyDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	ds := trace.NewDataset()
	for epoch := 1; epoch <= 5; epoch++ {
		for node := 1; node <= 3; node++ {
			if node == 2 && epoch == 3 {
				continue
			}
			v := make([]float64, metricspec.MetricCount)
			v[0] = float64(100*node + epoch)
			if err := ds.Add(trace.Record{Node: packet.NodeID(node), Epoch: epoch, Vector: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

func TestRebaseReplicatePartition(t *testing.T) {
	const calibEpochs = 144
	base := rebase(tinyDataset(t), 1, calibEpochs)
	if len(base) != 11 { // epochs 2..5 of 3 nodes, one lost
		t.Fatalf("rebase kept %d records, want 11", len(base))
	}
	for i, rec := range base {
		if rec.Epoch <= calibEpochs+1 {
			t.Errorf("record %d: epoch %d is inside the calibration window", i, rec.Epoch)
		}
		if i > 0 && rec.Epoch < base[i-1].Epoch {
			t.Errorf("record %d: epoch %d after %d", i, rec.Epoch, base[i-1].Epoch)
		}
	}

	// Staggered by one epoch, three districts share epochs 2–3 of the four.
	const districts, want = 3, 15
	fleet, err := replicate(base, districts, 1, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != want {
		t.Fatalf("replicate made %d records, want %d", len(fleet), want)
	}
	last := make(map[packet.NodeID]int)
	perDistrict := make(map[int]int)
	for i, rec := range fleet {
		if prev, ok := last[rec.Node]; ok && rec.Epoch <= prev {
			t.Errorf("record %d: node %d epoch %d after epoch %d", i, rec.Node, rec.Epoch, prev)
		}
		last[rec.Node] = rec.Epoch
		perDistrict[int(rec.Node)/districtShift]++
		if origin := int(rec.Node) % districtShift; origin < 1 || origin > 3 {
			t.Errorf("record %d: node %d is no replica of nodes 1..3", i, rec.Node)
		}
	}
	if len(perDistrict) != districts {
		t.Errorf("districts seen: %v, want %d", perDistrict, districts)
	}
	if &fleet[0].Vector[0] != &base[0].Vector[0] {
		t.Error("replicas copy their vectors; they should share the base trace's")
	}
	// The fourth record opens the second district: node 1 one epoch ahead.
	if rec := fleet[3]; rec.Node != districtShift+1 || rec.Epoch != base[0].Epoch || rec.Vector[0] != 103 {
		t.Errorf("second district starts with node %d epoch %d vector %v, want node 1001 at the first epoch with epoch 3's vector", rec.Node, rec.Epoch, rec.Vector[0])
	}
	if _, err := replicate(base, districts, 1, 18); err == nil {
		t.Error("replicate made more records than the staggered trace holds")
	}
	if all, err := replicate(base, districts, 0, 33); err != nil || len(all) != 33 {
		t.Errorf("unstaggered, the whole trace three times over: %d records, %v", len(all), err)
	}

	conns := partition(fleet, 2)
	n := 0
	for c, batches := range conns {
		last := make(map[packet.NodeID]int)
		for _, b := range batches {
			if len(b) == 0 || len(b) > batchSize {
				t.Errorf("connection %d: batch of %d", c, len(b))
			}
			for _, rec := range b {
				n++
				if int(rec.Node)%2 != c {
					t.Errorf("node %d on connection %d", rec.Node, c)
				}
				if prev, ok := last[rec.Node]; ok && rec.Epoch <= prev {
					t.Errorf("connection %d: node %d epoch %d after epoch %d", c, rec.Node, rec.Epoch, prev)
				}
				last[rec.Node] = rec.Epoch
			}
		}
	}
	if n != want {
		t.Errorf("partition kept %d records, want %d", n, want)
	}
}

var (
	fixturesOnce sync.Once
	sharedFx     *fixtures
	sharedFeed   [][]trace.Record
	errFixtures  error
)

// testFixtures makes the smoke-sized fixtures and a 40-batch feed once.
func testFixtures(t *testing.T) (*fixtures, [][]trace.Record) {
	t.Helper()
	fixturesOnce.Do(func() {
		dir, err := os.MkdirTemp("", "vn2bench-test-")
		if err != nil {
			errFixtures = err
			return
		}
		defer os.RemoveAll(dir) // the oracle needs only what is in memory
		if sharedFx, errFixtures = makeFixtures(dir, 1, false, 1); errFixtures != nil {
			return
		}
		recs, err := replicate(sharedFx.live, 2, staggerEpochs, 40*batchSize)
		if err != nil {
			errFixtures = err
			return
		}
		// Flag enough states that every mutation below touches a diagnosis.
		if sharedFx.det.Threshold, errFixtures = flagThreshold(sharedFx, recs, 0.1); errFixtures != nil {
			return
		}
		sharedFeed = partition(recs, 1)[0]
	})
	if errFixtures != nil {
		t.Fatal(errFixtures)
	}
	return sharedFx, sharedFeed
}

// playSUT stands in for the sink: a monitor built the same way, fed the
// given batches, answering with its /metrics counters and /epochs view. Like
// the sink it counts a rejected record and carries on.
func playSUT(t *testing.T, fx *fixtures, feed [][]trace.Record) (map[string]float64, []online.EpochState) {
	t.Helper()
	mon, err := newReferenceMonitor(fx)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range feed {
		for _, rec := range b {
			_, _ = mon.Ingest(rec) // a reject shows in Stats, as it does in the sink's /metrics
		}
	}
	if _, err := mon.Drain(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	return map[string]float64{
		"monitor_reports":   float64(st.Reports),
		"monitor_flagged":   float64(st.Flagged),
		"monitor_diagnosed": float64(st.Diagnosed),
		"monitor_stale":     float64(st.Stale),
		"monitor_dropped":   float64(st.Dropped),
	}, mon.EpochStates()
}

// oracleVerdict is what the harness's checks say about a SUT outcome.
func oracleVerdict(ref *reference, m map[string]float64, view []online.EpochState) string {
	if err := checkCounters(m, ref); err != nil {
		return err.Error()
	}
	epoch := func(e online.EpochState) int { return e.Epoch }
	return diffEpochs(retained(view, ref.stats.LastEpoch, epoch), ref.epochs, epoch)
}

func oneSink(packet.NodeID) int { return 0 }

func cloneFeed(feed [][]trace.Record) [][]trace.Record {
	out := make([][]trace.Record, len(feed))
	for i, b := range feed {
		out[i] = append([]trace.Record(nil), b...)
	}
	return out
}

func TestOracle(t *testing.T) {
	fx, feed := testFixtures(t)
	ref, err := computeReference(fx, feed, oneSink)
	if err != nil {
		t.Fatal(err)
	}
	if ref.stats.Flagged == 0 || len(ref.epochs) == 0 || len(ref.flagged) == 0 {
		t.Fatalf("reference flagged nothing: %+v", ref.stats)
	}
	m, view := playSUT(t, fx, feed)
	if v := oracleVerdict(ref, m, view); v != "" {
		t.Fatalf("the oracle rejects a faithful SUT: %s", v)
	}

	// A flagged report, located the way the reference finds them.
	fb, fi := -1, -1
	mon, err := newReferenceMonitor(fx)
	if err != nil {
		t.Fatal(err)
	}
	for b := range feed {
		for i, rec := range feed[b] {
			if obs, err := mon.Ingest(rec); err != nil {
				t.Fatal(err)
			} else if obs.Flagged && fb < 0 {
				fb, fi = b, i
			}
		}
	}
	if fb < 0 {
		t.Fatal("no flagged report located")
	}

	t.Run("dropped", func(t *testing.T) {
		mut := cloneFeed(feed)
		mut[fb] = append(mut[fb][:fi:fi], mut[fb][fi+1:]...)
		m, view := playSUT(t, fx, mut)
		if v := oracleVerdict(ref, m, view); v == "" {
			t.Error("a dropped report passed the oracle")
		}
		// Even with its counters forged, the view gives it away.
		forged, _ := playSUT(t, fx, feed)
		if v := oracleVerdict(ref, forged, view); v == "" {
			t.Error("a dropped report with matching counters passed the oracle")
		}
	})
	t.Run("duplicated with a different vector", func(t *testing.T) {
		mut := cloneFeed(feed)
		dup := mut[fb][fi]
		dup.Vector = append([]float64(nil), dup.Vector...)
		dup.Vector[0]++
		mut[fb] = append(mut[fb], dup)
		m, view := playSUT(t, fx, mut)
		if v := oracleVerdict(ref, m, view); !strings.Contains(v, "monitor_") {
			t.Errorf("verdict %q, want a counter mismatch", v)
		}
	})
	t.Run("reordered", func(t *testing.T) {
		mut := cloneFeed(feed)
		// Swap a node's two successive reports.
		node := mut[fb][fi].Node
		swapped := false
	search:
		for b := fb; b < len(mut); b++ {
			for i := range mut[b] {
				if (b > fb || i > fi) && mut[b][i].Node == node {
					mut[fb][fi], mut[b][i] = mut[b][i], mut[fb][fi]
					swapped = true
					break search
				}
			}
		}
		if !swapped {
			t.Skip("the flagged node reports only once in the feed")
		}
		m, view := playSUT(t, fx, mut)
		if v := oracleVerdict(ref, m, view); v == "" {
			t.Error("a reordered report passed the oracle")
		}
		if _, err := computeReference(fx, mut, oneSink); err == nil {
			t.Error("the reference accepted a reordered feed")
		}
	})
}

func TestFlagThresholdFixesTheShare(t *testing.T) {
	fx, feed := testFixtures(t)
	ref, err := computeReference(fx, feed, oneSink)
	if err != nil {
		t.Fatal(err)
	}
	states := ref.stats.Reports - ref.stats.FirstReports
	share := float64(ref.stats.Flagged) / float64(states)
	// The cutoff is set on states between live reports; on top of those, the
	// first district's first reports differ from the calibration trace's last
	// ones by a whole simulation and are all flagged: 72 states of this feed's
	// 2.5k, a few hundred of a real run's half million.
	if share < 0.09 || share > 0.14 {
		t.Errorf("flagged %d of %d states = %.3f, want 0.1 plus the first epoch", ref.stats.Flagged, states, share)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables equal.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || g.Better != "lower") {
				t.Errorf("%s: bound/direction differ from the harness's %v, lower", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound", d.name)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd, true)
	same("per-layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload against real SUT processes on one-second
// windows, then two of them again with the traced replay: one per ingest
// edge of the sink.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ./cmd/vn2 and boots it")
	}
	// The SUT children die with the thread that forked them.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dir := t.TempDir()
	bin := filepath.Join(dir, "vn2")
	build := exec.Command("go", "build", "-o", bin, "github.com/wsn-tools/vn2/cmd/vn2")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build vn2: %v\n%s", err, out)
	}
	smoke := func(name, workload, trace string, want []metricDef) string {
		out := filepath.Join(dir, name)
		t0 := time.Now()
		if err := realMain([]string{"-smoke", "-workload", workload, "-seconds", "1", "-trace", trace, "-vn2", bin, "-out", out}); err != nil {
			t.Fatal(err)
		}
		t.Logf("smoke pass %s took %v", name, time.Since(t0))
		raw, err := os.ReadFile(filepath.Join(out, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		var file resultFile
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		for _, run := range file.Runs {
			if !run.Correct || run.Failed != 0 {
				t.Errorf("%s: correct=%v failed=%d", run.Workload, run.Correct, run.Failed)
			}
			for _, d := range want {
				if _, ok := run.Metrics[d.name]; !ok {
					t.Errorf("%s: metric %s missing", run.Workload, d.name)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(out, "trace-"+run.Workload+".json")); err != nil {
					t.Errorf("%s: %v", run.Workload, err)
				}
			}
		}
		if pids := leftoverSUT(bin); len(pids) > 0 {
			t.Errorf("SUT processes left behind: %v", pids)
		}
		if workload == "all" && len(file.Runs) != len(workloads) {
			t.Errorf("%d runs in result.json, want %d", len(file.Runs), len(workloads))
		}
		return filepath.Join(out, "result.json")
	}
	all := smoke("all", "all", "0", endToEnd)
	smoke("bin", "router-bin", "1", allMetrics())
	smoke("json", "storm-json", "1", allMetrics())
	if err := compareFiles(all, all); err != nil {
		t.Errorf("a result compared with itself: %v", err)
	}
}
