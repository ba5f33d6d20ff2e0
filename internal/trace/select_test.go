package trace

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// sameStat is the order-statistic equality: equal under ==, or both NaN. A
// zero is compared by value on purpose — which of -0 and +0 the sort oracle
// returns among ties is an accident of its swaps; selection always answers
// +0, which is checked separately.
func sameStat(got, want float64) bool {
	return got == want || (got != got && want != want)
}

// column draws n values from a palette chosen to break a selection: NaN,
// both infinities, both zeros, a few heavily repeated values, and — in
// roughly a third of the draws — distinct ones.
func column(rng *rand.Rand, n int) []float64 {
	palette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 1, -2.5, 7, math.SmallestNonzeroFloat64}
	special := rng.Intn(3) // 0: palette only, 1: mixed, 2: distinct only
	v := make([]float64, n)
	for i := range v {
		if special == 0 || (special == 1 && rng.Intn(3) > 0) {
			v[i] = palette[rng.Intn(len(palette))]
		} else {
			v[i] = rng.NormFloat64() * 100
		}
	}
	return v
}

// TestSelectMatchesSortOracle holds the two statistics calibrate takes —
// selectMedian and SelectKth at percentile's index — against the sort-based
// median / percentile, SelectKth at other indices against sort.Float64s
// itself, and checks the arrangement SelectKth promises to leave behind.
func TestSelectMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sortsBefore := func(a, b float64) bool { return a < b || (a != a && b == b) }
	positiveZero := func(x float64) bool { return x != 0 || !math.Signbit(x) }
	for _, n := range []int{1, 2, 3, 12, 13, 1000} {
		for round := 0; round < 60; round++ {
			v := column(rng, n)
			work := append([]float64(nil), v...)
			if got, want := selectMedian(work), median(v); !sameStat(got, want) || !positiveZero(got) {
				t.Fatalf("n=%d: selectMedian = %v, sort oracle %v\n%v", n, got, want, v)
			}
			p99 := int(0.99 * float64(n-1))
			copy(work, v)
			if got, want := SelectKth(work, p99), percentile(v, 0.99); !sameStat(got, want) || !positiveZero(got) {
				t.Fatalf("n=%d: SelectKth(%d) = %v, percentile(0.99) = %v\n%v", n, p99, got, want, v)
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 2, n - 1, rng.Intn(n)} {
				copy(work, v)
				got := SelectKth(work, k)
				if !sameStat(got, sorted[k]) || !positiveZero(got) || !sameStat(work[k], got) {
					t.Fatalf("n=%d k=%d: SelectKth = %v leaving v[k] = %v, sorted[k] = %v\n%v", n, k, got, work[k], sorted[k], v)
				}
				for i, x := range work {
					if (i < k && sortsBefore(work[k], x)) || (i > k && sortsBefore(x, work[k])) {
						t.Fatalf("n=%d k=%d: v[%d] = %v on the wrong side of v[k] = %v", n, k, i, x, work[k])
					}
				}
			}
		}
	}
}

// TestSelectSignOfZeroIsDeterministic pins the ±0 tie rule: any arrangement
// of the same zeros gives +0.
func TestSelectSignOfZeroIsDeterministic(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, v := range [][]float64{
		{negZero, negZero, negZero, negZero},
		{0, negZero, 0, negZero},
		{negZero, 0, negZero, 0},
		{-1, negZero, negZero, 1},
		{negZero},
	} {
		if got := selectMedian(append([]float64(nil), v...)); got != 0 || math.Signbit(got) {
			t.Errorf("selectMedian(%v) = %v (signbit %v), want +0", v, got, math.Signbit(got))
		}
		if got := SelectKth(append([]float64(nil), v...), len(v)/2); got != 0 || math.Signbit(got) {
			t.Errorf("SelectKth(%v, %d) = %v (signbit %v), want +0", v, len(v)/2, got, math.Signbit(got))
		}
	}
}

// TestCalibrateAllocations pins the cold-start gain without a clock:
// calibrate allocates the calibration, one column and the scores — a
// handful of allocations whatever the window's length (it was two sorted
// copies of the column per metric: 91 allocations and 15 MB on a 20k-state
// window).
func TestCalibrateAllocations(t *testing.T) {
	count := func(n int) float64 {
		states := noisyStates(n, 5)
		return testing.AllocsPerRun(3, func() {
			if _, _, err := calibrate(states, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(500), count(5000)
	if large > 16 {
		t.Errorf("calibrate over 5000 states: %v allocations, budget 16", large)
	}
	if small != large {
		t.Errorf("calibrate allocations depend on the state count: %v at 500 states, %v at 5000", small, large)
	}
}

// codecDataset is rows×MetricCount random values over 8 nodes.
func codecDataset(t *testing.T, rows int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	d := NewDataset()
	for i := 0; i < rows; i++ {
		v := make([]float64, metricspec.MetricCount)
		for k := range v {
			v[k] = math.Round(rng.NormFloat64()*1e4) / 16
		}
		mustAdd(t, d, Record{Node: packet.NodeID(1 + i%8), Epoch: 1 + i/8, Vector: v})
	}
	return d
}

// TestCodecAllocations pins the codec's side of the same gain: WriteCSV
// allocates per call, not per row (it was ≈74 a row), and ReadCSV at most
// two a row amortised — encoding/csv's one string per line, plus the arenas
// and the per-node record slices' growth (it was four).
func TestCodecAllocations(t *testing.T) {
	const rows = 2000
	d := codecDataset(t, rows)
	var buf bytes.Buffer
	if n := testing.AllocsPerRun(3, func() {
		buf.Reset()
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("WriteCSV of %d rows: %v allocations, budget 64", rows, n)
	}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); n > 2*rows {
		t.Errorf("ReadCSV of %d rows: %v allocations, budget %d", rows, n, 2*rows)
	}
}

// TestWriteCSVMatchesEncodingCSV holds WriteCSV's bytes against the
// encoding/csv writer's on every kind of float the formatter treats
// specially, and reads them back bit for bit.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2,
		1e-05, 1e-04, 123456, 1234567, 1e20, 1e21, 1e21 + 1e6, math.MaxFloat64, -math.MaxFloat64,
		0.1, 1.0 / 3, -2.5e-7, 4503599627370497.5, 100, 1e6,
	}
	d := codecDataset(t, 64)
	for i := 0; i < len(special); i++ {
		v := make([]float64, metricspec.MetricCount)
		for k := range v {
			v[k] = special[(i+k)%len(special)]
		}
		mustAdd(t, d, Record{Node: packet.NodeID(60000 + i%2), Epoch: -3 + i, Vector: v})
	}
	var got, want bytes.Buffer
	if err := d.WriteCSV(&got); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := OracleWriteCSV(d, &want); err != nil {
		t.Fatalf("reference writer: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV bytes differ from the encoding/csv writer's:\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if diff := sameDataset(back, d); diff != "" {
		t.Fatalf("round trip: %s", diff)
	}
}
