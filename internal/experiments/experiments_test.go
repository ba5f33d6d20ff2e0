package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// quickRunner shares one memoized runner across the package tests so the
// CitySee trace and model train once.
var quickRunner = NewRunner(Options{Seed: 17, Quick: true})

func TestTableI(t *testing.T) {
	tab, err := quickRunner.TableI()
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (Table I)", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatalf("Fprint: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"NOACK_retransmit_counter", "Loop_counter", "Voltage"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestFig3a(t *testing.T) {
	tab, err := quickRunner.Fig3a()
	if err != nil {
		t.Fatalf("Fig3a: %v", err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Must contain at least one exception row and one normal row.
	var exceptions, normals int
	for _, row := range tab.Rows {
		if row[len(row)-1] == "*" {
			exceptions++
		} else {
			normals++
		}
	}
	if exceptions == 0 {
		t.Error("no exception rows in Fig 3a sample")
	}
	if normals == 0 {
		t.Error("no normal rows in Fig 3a sample")
	}
}

func TestFig3b(t *testing.T) {
	tab, err := quickRunner.Fig3b()
	if err != nil {
		t.Fatalf("Fig3b: %v", err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("sweep rows = %d", len(tab.Rows))
	}
	// Sparse accuracy must never beat original accuracy.
	for _, row := range tab.Rows {
		orig, err1 := strconv.ParseFloat(row[1], 64)
		sparse, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if sparse < orig-1e-9 {
			t.Errorf("r=%s: sparse %v < original %v", row[0], sparse, orig)
		}
	}
	// Reconstruction error at the largest rank must be below the smallest.
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if last >= first {
		t.Errorf("accuracy did not improve with rank: %v -> %v", first, last)
	}
}

func TestFig3c(t *testing.T) {
	tab, err := quickRunner.Fig3c()
	if err != nil {
		t.Fatalf("Fig3c: %v", err)
	}
	if len(tab.Rows) != quickRunner.citySeeRank() {
		t.Fatalf("rows = %d, want rank %d", len(tab.Rows), quickRunner.citySeeRank())
	}
	// The sparsified W must leave each exception explained by a small
	// subset: average causes per exception well below the rank.
	note := tab.Notes[0]
	if !strings.Contains(note, "causes per exception") {
		t.Fatalf("note = %q", note)
	}
}

func TestFig4(t *testing.T) {
	tab, err := quickRunner.Fig4()
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		if row[1] != "physical" && row[1] != "link" && row[1] != "protocol" {
			t.Errorf("unknown category %q", row[1])
		}
	}
}

func TestFig5(t *testing.T) {
	tables, err := quickRunner.Fig5()
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	ids := make(map[string]*Table, len(tables))
	for _, tab := range tables {
		ids[tab.ID] = tab
	}
	for _, want := range []string{"fig5b", "fig5cdef", "fig5g", "fig5h", "fig5i"} {
		if ids[want] == nil {
			t.Fatalf("missing table %s", want)
		}
	}
	if len(ids["fig5b"].Rows) != testbedRank {
		t.Errorf("fig5b rows = %d, want %d", len(ids["fig5b"].Rows), testbedRank)
	}
	// 5h and 5i must report a positive train/test correlation.
	for _, id := range []string{"fig5h", "fig5i"} {
		found := false
		for _, n := range ids[id].Notes {
			if strings.Contains(n, "correlation") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing correlation note", id)
		}
	}
}

func TestFig6(t *testing.T) {
	tables, err := quickRunner.Fig6()
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	ids := make(map[string]*Table, len(tables))
	for _, tab := range tables {
		ids[tab.ID] = tab
	}
	for _, want := range []string{"fig6a", "fig6b", "fig6c"} {
		if ids[want] == nil {
			t.Fatalf("missing table %s", want)
		}
	}
	// 6a must mark a degraded window.
	degraded := 0
	for _, row := range ids["fig6a"].Rows {
		if row[2] == "*" {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("fig6a has no degraded-window days")
	}
	if degraded == len(ids["fig6a"].Rows) {
		t.Error("fig6a marks every day degraded")
	}
	if len(ids["fig6b"].Rows) != quickRunner.citySeeRank() {
		t.Errorf("fig6b rows = %d", len(ids["fig6b"].Rows))
	}
	if len(ids["fig6c"].Rows) == 0 {
		t.Error("fig6c empty")
	}
}

func TestBaselineStudy(t *testing.T) {
	tab, err := quickRunner.BaselineStudy()
	if err != nil {
		t.Fatalf("BaselineStudy: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 approaches", len(tab.Rows))
	}
	if tab.Rows[0][0] != "VN2" {
		t.Errorf("first row = %q", tab.Rows[0][0])
	}
	// Sympathy's multi-cause column must be the structural zero.
	if !strings.Contains(tab.Rows[1][2], "0/") {
		t.Errorf("sympathy multi-cause cell = %q", tab.Rows[1][2])
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatalf("Fprint: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n") {
		t.Errorf("rendered: %q", out)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	tables, err := quickRunner.Run("all")
	if err != nil {
		t.Fatalf("Run(all): %v", err)
	}
	want := []string{"table1", "fig3a", "fig3b", "fig3c", "fig4",
		"fig5b", "fig5cdef", "fig5g", "fig5h", "fig5i",
		"fig6a", "fig6b", "fig6c", "baselines", "prrest", "threshold"}
	if len(tables) != len(want) {
		t.Fatalf("tables = %d, want %d", len(tables), len(want))
	}
	for i, id := range want {
		if tables[i].ID != id {
			t.Errorf("table %d = %s, want %s", i, tables[i].ID, id)
		}
	}
}

// TestExperimentDigests holds the full seed-17 run to the committed
// experiments_full.txt, the output of `vn2 experiment all -seed 17`. Every
// section of the file belongs to the step whose name prefixes its table ID
// (fig5 owns fig5b … fig5i); each step runs in a parallel subtest on one
// shared Runner, so the CitySee trace and model are built once, and must
// print exactly its sections.
//
// The tables print three or four significant digits, so a change that moves
// the trained model's bits can leave the file untouched until the drift
// crosses a rounding boundary. The model subtest pins the bytes of the
// CitySee model every model-based step reads, so such a change surfaces in
// the commit that makes it.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment run in -short mode")
	}
	const path = "../../experiments_full.txt"
	const regen = "if the change is meant to move results, regenerate with `make experiments` and re-read EXPERIMENTS.md"
	const modelDigest = "9bfebbe653e09acd9478f3fafa9d31f5f4b2e4262da852628b784026c3a87b32"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{Seed: 17})
	t.Run("model", func(t *testing.T) {
		t.Parallel()
		model, _, err := r.Model()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := model.Save(h); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != modelDigest {
			t.Fatalf("CitySee model digest %s, committed %s; re-pin it here, and %s", got, modelDigest, regen)
		}
	})
	steps := r.steps()
	want := make([][]string, len(steps)) // each step's lines of the file
	first := make([]int, len(steps))     // 1-based file line of its first section
	owner := -1
	for n, line := range strings.SplitAfter(string(raw), "\n") {
		if id, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(id, ":")
			next := -1
			for k, s := range steps {
				if strings.HasPrefix(id, s.name) {
					next = k
				}
			}
			if next < 0 || next < owner {
				t.Fatalf("%s:%d: section %q belongs to no step at or after this point; %s", path, n+1, id, regen)
			}
			if next > owner {
				owner, first[next] = next, n+1
			}
		}
		if line == "" {
			continue
		}
		if owner < 0 {
			t.Fatalf("%s:%d: text before the first section; %s", path, n+1, regen)
		}
		want[owner] = append(want[owner], line)
	}
	for k, s := range steps {
		if len(want[k]) == 0 {
			t.Fatalf("%s has no section for experiment %q; %s", path, s.name, regen)
		}
	}
	for k, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			tables, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tab := range tables {
				if err := tab.Fprint(&buf); err != nil {
					t.Fatal(err)
				}
			}
			got := strings.SplitAfter(buf.String(), "\n")
			got = got[:len(got)-1] // the empty remainder after the final newline
			for i := 0; i < max(len(got), len(want[k])); i++ {
				g, w := "<end of output>", "<end of section>"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want[k]) {
					w = want[k][i]
				}
				if g != w {
					t.Fatalf("%s:%d differs:\n got %q\nwant %q\n%s", path, first[k]+i, g, w, regen)
				}
			}
		})
	}
}

func TestPRREstimation(t *testing.T) {
	tab, err := quickRunner.PRREstimation()
	if err != nil {
		t.Fatalf("PRREstimation: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want train+test", len(tab.Rows))
	}
	if tab.Rows[0][0] != "train" || tab.Rows[1][0] != "test" {
		t.Errorf("row labels = %v", tab.Rows)
	}
}

func TestThresholdSensitivity(t *testing.T) {
	tab, err := quickRunner.ThresholdSensitivity()
	if err != nil {
		t.Fatalf("ThresholdSensitivity: %v", err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 thresholds", len(tab.Rows))
	}
	// Exception count must be non-increasing in the threshold.
	var prev = -1
	for _, row := range tab.Rows {
		var count int
		if _, err := fmt.Sscanf(row[1], "%d", &count); err != nil {
			t.Fatalf("unparseable count %q", row[1])
		}
		if prev >= 0 && count > prev {
			t.Fatalf("exception count increased with threshold: %d -> %d", prev, count)
		}
		prev = count
	}
}
