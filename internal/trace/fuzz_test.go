package trace

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

// FuzzReadCSV hammers the trace decoder with arbitrary bytes, differentially
// against the allocating reader it replaced (oracleReadCSV): the two must
// accept and reject the same inputs, with the same error text — line number
// included — or the same dataset bit for bit. Seeds come from the
// malformed-input regression tables plus well-formed traces. Whatever is
// accepted must also be a coherent dataset (monotone per-node epochs,
// full-width vectors) that WriteCSV renders exactly as the encoding/csv
// writer does and that survives the round trip.
//
// ReadLastRecords is held to ReadCSV on the same bytes: on an unquoted file
// ReadCSV accepts it must return ds.LastRecords() bit for bit, on WriteCSV's
// re-encoding too, and whatever it accepts ReadCSV either accepts with the
// same last rows or refuses for a metric cell — the only thing
// ReadLastRecords leaves unparsed, in rows it does not keep.
func FuzzReadCSV(f *testing.F) {
	f.Add("")
	f.Add("a,b,c\n")
	f.Add(csvHeader() + ",extra\n")
	f.Add(csvHeader() + "\n1,2,3\n")
	f.Add(csvHeader() + "\n" + csvRow(1, 2, "zap") + "\n")
	f.Add(csvHeader() + "\n" + strings.Replace(csvRow(1, 2, "0"), "1,2", "x,2", 1) + "\n")
	f.Add(csvHeader() + "\n" + csvRow(1, 5, "0") + "\n" + csvRow(1, 4, "0") + "\n")
	f.Add(csvHeader() + "\n\"1,2" + strings.Repeat(",0", metricspec.MetricCount) + "\n")
	f.Add(csvHeader() + "\n" + csvRow(1, 1, "0") + "\n" + csvRow(1, 2, "1.5") + "\n")
	f.Add(csvHeader() + "\n" + csvRow(7, 3, "1e9") + "\n")
	f.Add(csvHeader() + "\n" + csvRow(1, 2, "NaN") + "\n")
	f.Add(csvHeader() + "\n" + csvRow(1, 2, "-Inf") + "\n")
	f.Add("\n" + csvHeader() + "\r\n\n" + csvRow(3, 1, "zap") + "\n" + csvRow(3, 2, "-0") + "\r\n" + csvRow(2, 9, "5e-324"))

	f.Fuzz(func(t *testing.T, in string) {
		ds, err := ReadCSV(strings.NewReader(in))
		want, wantErr := oracleReadCSV(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadCSV error %v, reference reader %v", err, wantErr)
		}
		last, lastErr := ReadLastRecords(strings.NewReader(in))
		switch {
		case err == nil && lastErr != nil && !strings.Contains(in, `"`):
			t.Fatalf("ReadCSV accepts an unquoted file ReadLastRecords refuses: %v", lastErr)
		case err != nil && lastErr == nil && !unparsedMetric.MatchString(err.Error()):
			t.Fatalf("ReadLastRecords accepts a file ReadCSV refuses with %v", err)
		case err == nil && lastErr == nil:
			if diff := sameRecords(last, ds.LastRecords()); diff != "" {
				t.Fatalf("ReadLastRecords differs from ReadCSV's last rows: %s", diff)
			}
		}
		if err != nil {
			return
		}
		if diff := sameDataset(ds, want); diff != "" {
			t.Fatalf("ReadCSV differs from the reference reader: %s", diff)
		}
		for _, id := range ds.Nodes() {
			last := math.MinInt
			for _, rec := range ds.Records(id) {
				if rec.Node != id {
					t.Fatalf("record under node %d claims node %d", id, rec.Node)
				}
				if rec.Epoch <= last {
					t.Fatalf("node %d epochs not strictly increasing: %d after %d", id, rec.Epoch, last)
				}
				last = rec.Epoch
				if len(rec.Vector) != metricspec.MetricCount {
					t.Fatalf("accepted vector of %d metrics", len(rec.Vector))
				}
			}
		}
		var buf, ref bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset does not re-encode: %v", err)
		}
		if err := OracleWriteCSV(ds, &ref); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteCSV bytes differ from the encoding/csv writer's (err %v)", err)
		}
		if last, err := ReadLastRecords(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("ReadLastRecords refuses WriteCSV's bytes: %v", err)
		} else if diff := sameRecords(last, ds.LastRecords()); diff != "" {
			t.Fatalf("ReadLastRecords on WriteCSV's bytes: %s", diff)
		}
		ds2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded dataset does not decode: %v", err)
		}
		if ds2.Len() != ds.Len() {
			t.Fatalf("round trip changed record count %d -> %d", ds.Len(), ds2.Len())
		}
	})
}

// unparsedMetric matches ReadCSV's error for a metric cell.
var unparsedMetric = regexp.MustCompile(`^line \d+ metric \d+: `)

// sameRecords compares record lists bit for bit, "" when equal.
func sameRecords(got, want []Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Node != w.Node || g.Epoch != w.Epoch || len(g.Vector) != len(w.Vector) {
			return fmt.Sprintf("record %d is node %d epoch %d, want node %d epoch %d", i, g.Node, g.Epoch, w.Node, w.Epoch)
		}
		for k := range w.Vector {
			if math.Float64bits(g.Vector[k]) != math.Float64bits(w.Vector[k]) {
				return fmt.Sprintf("node %d metric %d: %v, want %v", w.Node, k, g.Vector[k], w.Vector[k])
			}
		}
	}
	return ""
}
