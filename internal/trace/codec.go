package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/packet"
)

// WriteCSV writes the dataset as CSV with a header row:
// node,epoch,<metric names...>. Rows are ordered by (node, epoch).
//
// A data row is numbers in strconv's shortest round-trip form, which never
// needs quoting, so it is appended into one reused line buffer; the bytes
// are what encoding/csv would have written.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := csv.NewWriter(bw)
	if err := cw.Write(append([]string{"node", "epoch"}, metricspec.Names()...)); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	cw.Flush() // into bw, whose errors are sticky: the last Flush reports them
	var line []byte
	for _, id := range d.Nodes() {
		for _, rec := range d.byNode[id] {
			line = strconv.AppendInt(line[:0], int64(rec.Node), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(rec.Epoch), 10)
			for _, v := range rec.Vector {
				line = append(line, ',')
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("write csv row: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset produced by WriteCSV. Rows are split by
// encoding/csv and cells parsed by strconv, so what is accepted and rejected
// is theirs; the record and the vector are reused from row to row (Add
// copies), which leaves encoding/csv's one string per row as the only
// per-row allocation.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	want := 2 + metricspec.MetricCount
	if len(header) != want {
		return nil, fmt.Errorf("%w: header has %d columns, want %d", ErrVectorLength, len(header), want)
	}
	d := NewDataset()
	vec := make([]float64, metricspec.MetricCount)
	// Rows are numbered by their position in the file: the header is line 1,
	// the first data row line 2. The counter is bumped before any error is
	// reported, so a cr.Read failure and a parse failure on the same row
	// name the same (true) file line.
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
