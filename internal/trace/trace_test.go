package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

func vec(fill float64) []float64 {
	v := make([]float64, metricspec.MetricCount)
	for i := range v {
		v[i] = fill
	}
	return v
}

func TestAddValidatesLength(t *testing.T) {
	d := NewDataset()
	if err := d.Add(Record{Node: 1, Epoch: 1, Vector: []float64{1, 2}}); !errors.Is(err, ErrVectorLength) {
		t.Errorf("err = %v, want ErrVectorLength", err)
	}
}

func TestAddRejectsOutOfOrder(t *testing.T) {
	d := NewDataset()
	if err := d.Add(Record{Node: 1, Epoch: 5, Vector: vec(1)}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := d.Add(Record{Node: 1, Epoch: 5, Vector: vec(2)}); err == nil {
		t.Error("duplicate epoch accepted")
	}
	if err := d.Add(Record{Node: 1, Epoch: 4, Vector: vec(2)}); err == nil {
		t.Error("regressing epoch accepted")
	}
	// Different node at the same epoch is fine.
	if err := d.Add(Record{Node: 2, Epoch: 5, Vector: vec(1)}); err != nil {
		t.Errorf("cross-node same epoch rejected: %v", err)
	}
}

func TestAddCopiesVector(t *testing.T) {
	d := NewDataset()
	v := vec(1)
	if err := d.Add(Record{Node: 1, Epoch: 1, Vector: v}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	v[0] = 999
	if d.Records(1)[0].Vector[0] == 999 {
		t.Error("Add aliased caller's vector")
	}
}

func TestStatesDiffs(t *testing.T) {
	d := NewDataset()
	v1 := vec(10)
	v2 := vec(10)
	v2[metricspec.TransmitCounter] = 25
	v2[metricspec.Voltage] = 7
	mustAdd(t, d, Record{Node: 1, Epoch: 1, Vector: v1})
	mustAdd(t, d, Record{Node: 1, Epoch: 2, Vector: v2})
	states := d.States()
	if len(states) != 1 {
		t.Fatalf("states = %d, want 1", len(states))
	}
	s := states[0]
	if s.Node != 1 || s.Epoch != 2 || s.Gap != 1 {
		t.Errorf("state header = %+v", s)
	}
	if s.Delta[metricspec.TransmitCounter] != 15 {
		t.Errorf("transmit delta = %v, want 15", s.Delta[metricspec.TransmitCounter])
	}
	if s.Delta[metricspec.Voltage] != -3 {
		t.Errorf("voltage delta = %v, want -3", s.Delta[metricspec.Voltage])
	}
}

func mustAdd(t *testing.T, d *Dataset, r Record) {
	t.Helper()
	if err := d.Add(r); err != nil {
		t.Fatalf("Add: %v", err)
	}
}

func TestStatesGapTracksMissedReports(t *testing.T) {
	d := NewDataset()
	mustAdd(t, d, Record{Node: 3, Epoch: 1, Vector: vec(0)})
	mustAdd(t, d, Record{Node: 3, Epoch: 4, Vector: vec(1)})
	states := d.States()
	if len(states) != 1 || states[0].Gap != 3 {
		t.Errorf("states = %+v, want one state with Gap=3", states)
	}
}

func TestStatesOrderedDeterministically(t *testing.T) {
	d := NewDataset()
	for node := packet.NodeID(5); node >= 1; node-- {
		mustAdd(t, d, Record{Node: node, Epoch: 1, Vector: vec(0)})
		mustAdd(t, d, Record{Node: node, Epoch: 2, Vector: vec(1)})
		mustAdd(t, d, Record{Node: node, Epoch: 3, Vector: vec(2)})
	}
	states := d.States()
	if len(states) != 10 {
		t.Fatalf("states = %d, want 10", len(states))
	}
	for i := 1; i < len(states); i++ {
		a, b := states[i-1], states[i]
		if a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.Node >= b.Node) {
			t.Fatalf("states out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestLenNodesEpochRange(t *testing.T) {
	d := NewDataset()
	if _, _, err := d.EpochRange(); !errors.Is(err, ErrEmpty) {
		t.Errorf("EpochRange on empty err = %v", err)
	}
	mustAdd(t, d, Record{Node: 2, Epoch: 3, Vector: vec(0)})
	mustAdd(t, d, Record{Node: 1, Epoch: 7, Vector: vec(0)})
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	nodes := d.Nodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Errorf("Nodes = %v", nodes)
	}
	min, max, err := d.EpochRange()
	if err != nil || min != 3 || max != 7 {
		t.Errorf("EpochRange = %d,%d,%v", min, max, err)
	}
}

func TestAddReport(t *testing.T) {
	d := NewDataset()
	r := packet.Report{C1: packet.C1{Node: 9, Voltage: 3}}
	if err := d.AddReport(1, r); err != nil {
		t.Fatalf("AddReport: %v", err)
	}
	recs := d.Records(9)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Vector[metricspec.Voltage] != 3 {
		t.Errorf("voltage = %v", recs[0].Vector[metricspec.Voltage])
	}
}

// TestAddReportRefusedLeavesDatasetIntact: AddReport assembles the vector in
// the arena slot the record would own, so a refused report — too many
// neighbours, or an epoch not after the node's last — must leave the slot
// unconsumed and the next record's vector its own.
func TestAddReportRefusedLeavesDatasetIntact(t *testing.T) {
	d := NewDataset()
	if err := d.AddReport(1, packet.Report{C1: packet.C1{Node: 9, Voltage: 3}}); err != nil {
		t.Fatalf("AddReport: %v", err)
	}
	arena := len(d.arena)
	crowded := packet.Report{C1: packet.C1{Node: 9, Voltage: 7}}
	crowded.C2.Entries = make([]packet.NeighborEntry, metricspec.MaxNeighbors+1)
	if err := d.AddReport(2, crowded); !errors.Is(err, packet.ErrTooManyNeighbors) {
		t.Fatalf("crowded report: err = %v, want ErrTooManyNeighbors", err)
	}
	if err := d.AddReport(1, packet.Report{C1: packet.C1{Node: 9, Voltage: 8}}); err == nil {
		t.Fatal("a second report for epoch 1 was accepted")
	}
	if d.Len() != 1 || len(d.arena) != arena {
		t.Fatalf("after two refusals: Len = %d, arena %d → %d", d.Len(), arena, len(d.arena))
	}
	if err := d.AddReport(2, packet.Report{C1: packet.C1{Node: 9, Voltage: 2.5}}); err != nil {
		t.Fatalf("AddReport after refusals: %v", err)
	}
	recs := d.Records(9)
	if len(recs) != 2 || recs[0].Vector[metricspec.Voltage] != 3 || recs[1].Vector[metricspec.Voltage] != 2.5 {
		t.Fatalf("records after refusals = %+v", recs)
	}
	if &recs[0].Vector[0] == &recs[1].Vector[0] || cap(recs[0].Vector) != metricspec.MetricCount {
		t.Fatal("records share a vector, or one can grow into the next")
	}
}

func TestPRRSeries(t *testing.T) {
	d := NewDataset()
	// 4 nodes; epochs 1-3; node 4 misses epoch 2 entirely.
	for node := packet.NodeID(1); node <= 4; node++ {
		mustAdd(t, d, Record{Node: node, Epoch: 1, Vector: vec(0)})
	}
	for node := packet.NodeID(1); node <= 3; node++ {
		mustAdd(t, d, Record{Node: node, Epoch: 2, Vector: vec(0)})
	}
	for node := packet.NodeID(1); node <= 4; node++ {
		mustAdd(t, d, Record{Node: node, Epoch: 3, Vector: vec(0)})
	}
	series, err := d.PRRSeries(4)
	if err != nil {
		t.Fatalf("PRRSeries: %v", err)
	}
	want := []float64{1, 0.75, 1}
	if len(series) != 3 {
		t.Fatalf("series = %d points", len(series))
	}
	for i, p := range series {
		if p.PRR != want[i] {
			t.Errorf("epoch %d PRR = %v, want %v", p.Epoch, p.PRR, want[i])
		}
	}
	if _, err := d.PRRSeries(0); err == nil {
		t.Error("PRRSeries(0) succeeded")
	}
}

func TestDetectExceptionsFlagsOutliers(t *testing.T) {
	var states []StateVector
	// 99 calm states with small jitter, one wild state.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 99; i++ {
		delta := make([]float64, metricspec.MetricCount)
		for k := range delta {
			delta[k] = rng.NormFloat64() * 0.1
		}
		states = append(states, StateVector{Node: 1, Epoch: i + 2, Gap: 1, Delta: delta})
	}
	wild := make([]float64, metricspec.MetricCount)
	wild[metricspec.NOACKRetransmitCounter] = 500
	wild[metricspec.MacBackoffCounter] = 300
	states = append(states, StateVector{Node: 2, Epoch: 50, Gap: 1, Delta: wild})

	res, err := DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	found := false
	for _, idx := range res.Indices {
		if states[idx].Node == 2 {
			found = true
		}
	}
	if !found {
		t.Error("wild state not flagged as exception")
	}
	// The wild state must carry the max score (1.0 after normalization).
	if res.Scores[len(states)-1] != 1 {
		t.Errorf("wild state score = %v, want 1", res.Scores[len(states)-1])
	}
	// Exceptions must be a small minority of the calm data.
	if len(res.Indices) > 30 {
		t.Errorf("%d/100 states flagged; detector too eager", len(res.Indices))
	}
}

func TestDetectExceptionsEmpty(t *testing.T) {
	if _, err := DetectExceptions(nil, 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestDetectExceptionsRaggedStates(t *testing.T) {
	states := []StateVector{
		{Delta: vec(0)},
		{Delta: []float64{1}},
	}
	if _, err := DetectExceptions(states, 0); !errors.Is(err, ErrVectorLength) {
		t.Errorf("err = %v, want ErrVectorLength", err)
	}
}

func TestDetectExceptionsUniformData(t *testing.T) {
	states := make([]StateVector, 10)
	for i := range states {
		states[i] = StateVector{Node: 1, Epoch: i + 2, Delta: vec(3)}
	}
	res, err := DetectExceptions(states, 0)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	if len(res.Indices) != 0 {
		t.Errorf("uniform data produced %d exceptions", len(res.Indices))
	}
}

func TestExceptionsAccessor(t *testing.T) {
	states := []StateVector{
		{Node: 1, Epoch: 2, Delta: vec(0)},
		{Node: 2, Epoch: 2, Delta: vec(100)},
		{Node: 3, Epoch: 2, Delta: vec(0)},
	}
	res, err := DetectExceptions(states, 0.5)
	if err != nil {
		t.Fatalf("DetectExceptions: %v", err)
	}
	ex := res.Exceptions(states)
	if len(ex) != len(res.Indices) {
		t.Fatalf("Exceptions len = %d, want %d", len(ex), len(res.Indices))
	}
	for i, s := range ex {
		if s.Node != states[res.Indices[i]].Node {
			t.Error("Exceptions returned wrong states")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset()
	rng := rand.New(rand.NewSource(2))
	for node := packet.NodeID(1); node <= 3; node++ {
		for epoch := 1; epoch <= 4; epoch++ {
			v := make([]float64, metricspec.MetricCount)
			for k := range v {
				v[k] = rng.Float64() * 100
			}
			mustAdd(t, d, Record{Node: node, Epoch: epoch, Vector: v})
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), d.Len())
	}
	for _, id := range d.Nodes() {
		want := d.Records(id)
		have := got.Records(id)
		for i := range want {
			for k := range want[i].Vector {
				if want[i].Vector[k] != have[i].Vector[k] {
					t.Fatalf("node %d rec %d metric %d: %v != %v",
						id, i, k, have[i].Vector[k], want[i].Vector[k])
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("bad,header\n")); err == nil {
		t.Error("short header accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty input accepted")
	}
}

// Property: States() output count equals Σ(records per node − 1), and every
// delta equals the recomputed difference.
func TestPropertyStatesConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDataset()
		nodes := 1 + rng.Intn(5)
		expect := 0
		for node := 1; node <= nodes; node++ {
			count := 1 + rng.Intn(6)
			expect += count - 1
			for e := 1; e <= count; e++ {
				v := make([]float64, metricspec.MetricCount)
				for k := range v {
					v[k] = rng.Float64() * 10
				}
				if err := d.Add(Record{Node: packet.NodeID(node), Epoch: e, Vector: v}); err != nil {
					return false
				}
			}
		}
		states := d.States()
		if len(states) != expect {
			return false
		}
		for _, s := range states {
			recs := d.Records(s.Node)
			var prev, cur []float64
			for i := range recs {
				if recs[i].Epoch == s.Epoch {
					cur = recs[i].Vector
					prev = recs[i-1].Vector
				}
			}
			for k := range s.Delta {
				if s.Delta[k] != cur[k]-prev[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
