package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
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

// ReadLastRecords returns ReadCSV(r).LastRecords() for any file WriteCSV
// writes, parsing the metrics of each node's last row only. Like ReadCSV it
// skips blank lines and checks every row's column count, node, epoch and
// per-node epoch order; rows are split at commas, so a quoted field is
// refused. It streams: what it holds is one row per node.
func ReadLastRecords(r io.Reader) ([]Record, error) {
	type last struct {
		epoch, line int
		row         []byte // nil: no row for this node
	}
	var rows []last // by node
	want := 2 + metricspec.MetricCount
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), math.MaxInt32)
	line := 0
	for sc.Scan() {
		row := sc.Bytes()
		if len(row) == 0 {
			continue
		}
		if line++; bytes.IndexByte(row, '"') >= 0 || bytes.Count(row, []byte{','}) != want-1 {
			return nil, fmt.Errorf("%w: line %d is not %d unquoted columns", ErrVectorLength, line, want)
		}
		if line == 1 {
			continue // the header
		}
		f0, tail, _ := bytes.Cut(row, []byte{','})
		f1, _, _ := bytes.Cut(tail, []byte{','})
		node, errNode := strconv.Atoi(string(f0))
		epoch, err := strconv.Atoi(string(f1))
		if err = errors.Join(errNode, err); err != nil {
			return nil, fmt.Errorf("line %d node or epoch: %w", line, err)
		}
		id := int(packet.NodeID(node))
		if id >= len(rows) {
			rows = append(rows, make([]last, id+1-len(rows))...)
		}
		if l := rows[id]; l.row != nil && l.epoch >= epoch {
			return nil, fmt.Errorf("line %d: trace: node %d epoch %d not after previous epoch %d", line, id, epoch, l.epoch)
		}
		rows[id] = last{epoch, line, append(rows[id].row[:0], row...)}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	if line == 0 {
		return nil, fmt.Errorf("read csv header: %w", io.EOF)
	}
	out := []Record{}
	for id, l := range rows {
		if l.row == nil {
			continue
		}
		vec := make([]float64, metricspec.MetricCount)
		for k, cell := range bytes.Split(l.row, []byte{','})[2:] {
			var err error
			if vec[k], err = strconv.ParseFloat(string(cell), 64); err != nil {
				return nil, fmt.Errorf("line %d metric %d: %w", l.line, k, err)
			}
		}
		out = append(out, Record{Node: packet.NodeID(id), Epoch: l.epoch, Vector: vec})
	}
	return out, nil
}
