package trace

// The reference implementations the production code is tested against:
// the sort-based order statistics and calibration, the encoding/csv row
// writer and the allocating CSV reader — each the code this package ran
// before selection and the append-based codec replaced it, kept verbatim.
// The exported wrappers let the external test package (which can import
// tracegen) reach them.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// median returns the median of v, sorting a copy.
func median(v []float64) float64 {
	tmp := make([]float64, len(v))
	copy(tmp, v)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// percentile returns the p-th quantile (p in [0,1]) of v, sorting a copy.
func percentile(v []float64, p float64) float64 {
	tmp := make([]float64, len(v))
	copy(tmp, v)
	sort.Float64s(tmp)
	idx := int(p * float64(len(tmp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// OracleCalibrate is calibrate on the sort-based order statistics: the
// detector and the raw per-state deviations.
func OracleCalibrate(states []StateVector, threshold float64) (*Detector, []float64) {
	m := len(states[0].Delta)
	center := make([]float64, m)
	scale := make([]float64, m)
	col := make([]float64, len(states))
	for k := 0; k < m; k++ {
		for i, s := range states {
			col[i] = s.Delta[k]
		}
		center[k] = median(col)
		for i, s := range states {
			col[i] = math.Abs(s.Delta[k] - center[k])
		}
		scale[k] = percentile(col, 0.99)
		if scale[k] < 1e-9 {
			scale[k] = 1e-9
		}
	}
	d := &Detector{Center: center, Scale: scale, Threshold: threshold}
	scores := make([]float64, len(states))
	for i, s := range states {
		scores[i] = d.rawScore(s.Delta)
		if scores[i] > d.RefMax {
			d.RefMax = scores[i]
		}
	}
	return d, scores
}

// OracleWriteCSV is WriteCSV through encoding/csv, a []string per row.
func OracleWriteCSV(d *Dataset, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"node", "epoch"}, metricspec.Names()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	row := make([]string, len(header))
	for _, id := range d.Nodes() {
		for _, rec := range d.byNode[id] {
			row[0] = strconv.Itoa(int(rec.Node))
			row[1] = strconv.Itoa(rec.Epoch)
			for k, v := range rec.Vector {
				row[2+k] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// oracleReadCSV is ReadCSV allocating a record, a vector and Add's copy of
// it per row.
func oracleReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	want := 2 + metricspec.MetricCount
	if len(header) != want {
		return nil, fmt.Errorf("%w: header has %d columns, want %d", ErrVectorLength, len(header), want)
	}
	d := NewDataset()
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("read csv line %d: %w", line, err)
		}
		node, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("line %d node: %w", line, err)
		}
		epoch, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("line %d epoch: %w", line, err)
		}
		vec := make([]float64, metricspec.MetricCount)
		for k := range vec {
			vec[k], err = strconv.ParseFloat(rec[2+k], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d metric %d: %w", line, k, err)
			}
		}
		if err := d.Add(Record{Node: packet.NodeID(node), Epoch: epoch, Vector: vec}); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	return d, nil
}

// sameDataset explains the first difference between two datasets, vectors
// compared bit for bit, or returns "".
func sameDataset(got, want *Dataset) string {
	gn, wn := got.Nodes(), want.Nodes()
	if len(gn) != len(wn) {
		return fmt.Sprintf("%d nodes, want %d", len(gn), len(wn))
	}
	for i, id := range wn {
		g, w := got.byNode[gn[i]], want.byNode[id]
		if gn[i] != id || len(g) != len(w) {
			return fmt.Sprintf("node %d with %d records, want node %d with %d", gn[i], len(g), id, len(w))
		}
		for j := range w {
			if g[j].Node != w[j].Node || g[j].Epoch != w[j].Epoch || len(g[j].Vector) != len(w[j].Vector) {
				return fmt.Sprintf("node %d record %d: %v/%d, want %v/%d", id, j, g[j].Node, g[j].Epoch, w[j].Node, w[j].Epoch)
			}
			for k := range w[j].Vector {
				if math.Float64bits(g[j].Vector[k]) != math.Float64bits(w[j].Vector[k]) {
					return fmt.Sprintf("node %d epoch %d metric %d: %v, want %v", id, w[j].Epoch, k, g[j].Vector[k], w[j].Vector[k])
				}
			}
		}
	}
	return ""
}
