package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/metricspec"
)

// csvHeader is the canonical WriteCSV header line.
func csvHeader() string {
	return "node,epoch," + strings.Join(metricspec.Names(), ",")
}

// csvRow renders one well-formed data row.
func csvRow(node, epoch int, fill string) string {
	fields := make([]string, 2+metricspec.MetricCount)
	fields[0] = fmt.Sprint(node)
	fields[1] = fmt.Sprint(epoch)
	for i := 2; i < len(fields); i++ {
		fields[i] = fill
	}
	return strings.Join(fields, ",")
}

// TestReadCSVLineNumbersConsistent is the regression test for the line
// accounting: a cr.Read error (wrong column count) and a parse error
// (non-numeric cell) on the same physical row must both report the true
// file line — the header is line 1, the first data row line 2.
func TestReadCSVLineNumbersConsistent(t *testing.T) {
	cases := []struct {
		name string
		rows []string // data rows appended after the header
		line int      // file line the error must name
	}{
		{"read error first data row", []string{"1,2,3"}, 2},
		{"parse error first data row", []string{csvRow(1, 2, "bogus")}, 2},
		{"bad node first data row", []string{strings.Replace(csvRow(1, 2, "0"), "1,2", "x,2", 1)}, 2},
		{"read error second data row", []string{csvRow(1, 1, "0"), "too,short"}, 3},
		{"parse error second data row", []string{csvRow(1, 1, "0"), csvRow(1, 2, "NaN-ish")}, 3},
		{"add error duplicate epoch", []string{csvRow(1, 5, "0"), csvRow(1, 5, "0")}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := csvHeader() + "\n" + strings.Join(tc.rows, "\n") + "\n"
			_, err := ReadCSV(bytes.NewBufferString(in))
			if err == nil {
				t.Fatal("malformed CSV accepted")
			}
			want := fmt.Sprintf("line %d", tc.line)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// TestReadCSVMalformed is the table-driven sweep of broken inputs: every
// case must be rejected, never panic, and never return a dataset.
func TestReadCSVMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short header", "a,b,c\n"},
		{"long header", csvHeader() + ",extra\n"},
		{"row with wrong column count", csvHeader() + "\n1,2,3\n"},
		{"non-numeric node", csvHeader() + "\n" + strings.Replace(csvRow(1, 2, "0"), "1,2", "x,2", 1) + "\n"},
		{"non-numeric epoch", csvHeader() + "\n" + strings.Replace(csvRow(1, 2, "0"), "1,2", "1,y", 1) + "\n"},
		{"non-numeric metric cell", csvHeader() + "\n" + csvRow(1, 2, "zap") + "\n"},
		{"regressing epoch", csvHeader() + "\n" + csvRow(1, 5, "0") + "\n" + csvRow(1, 4, "0") + "\n"},
		{"unterminated quote", csvHeader() + "\n\"1,2" + strings.Repeat(",0", metricspec.MetricCount) + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := ReadCSV(bytes.NewBufferString(tc.in))
			if err == nil {
				t.Fatalf("accepted, got dataset with %d records", ds.Len())
			}
		})
	}
}
