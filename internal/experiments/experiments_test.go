package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/vn2"
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
	const modelDigest = "fe012a98579cc7bd28e35fee6c767da67cc5b1a155a8de13f431055dee856010"
	// The same model saved without its calibration: the factors alone, as
	// pinned before models carried one.
	const factorsDigest = "9bfebbe653e09acd9478f3fafa9d31f5f4b2e4262da852628b784026c3a87b32"
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
		factors := *model
		factors.Calibration = nil
		for _, c := range []struct {
			m    *vn2.Model
			want string
		}{{model, modelDigest}, {&factors, factorsDigest}} {
			h := sha256.New()
			if err := c.m.Save(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("CitySee model digest %s, committed %s; re-pin it here, and %s", got, c.want, regen)
			}
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

// TestExperimentShapes holds the committed experiments_full.txt to the shape
// claims EXPERIMENTS.md makes of it, so a regenerated file that keeps its
// digests consistent but breaks a claim fails here, not in a reader's eye:
// train/test cause distributions positively correlated (Fig. 5h/5i), the
// healthy days' PRR above the degraded window's (Fig. 6a), and the exception
// count flat within 5% of its 0.01 value for cutoffs 0.005–0.05, VN2
// detecting every event window and fully attributing every multi-cause state
// where Sympathy-style detects fewer and attributes none, and Fig. 5g's
// failure-vs-reboot split (two causes at 2× on reboots, one at 2× on
// failures). It also
// pins the known deviations as measured: local removal detected with higher
// recall than expansive, the reverse of the paper; Fig. 6b's top four causes
// holding 0.41 of the window, and none of Fig. 6c's four led by Loop_counter.
func TestExperimentShapes(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	// section returns the lines of one table, header line excluded.
	section := func(id string) []string {
		_, body, ok := strings.Cut(string(raw), "\n== "+id+":")
		if !ok {
			t.Fatalf("no section %q", id)
		}
		body, _, _ = strings.Cut(body, "\n\n")
		return strings.Split(body, "\n")[1:]
	}
	// note scans the values of the section's note that starts with prefix.
	note := func(id, prefix, format string, v ...any) {
		t.Helper()
		for _, line := range section(id) {
			if rest, ok := strings.CutPrefix(line, "note: "+prefix); ok {
				if _, err := fmt.Sscanf(rest, format, v...); err != nil {
					t.Fatalf("%s note %q: %v", id, line, err)
				}
				return
			}
		}
		t.Fatalf("%s has no note starting %q", id, prefix)
	}

	for _, id := range []string{"fig5h", "fig5i"} {
		var corr float64
		note(id, "train/test distribution correlation = ", "%g", &corr)
		if corr <= 0 {
			t.Errorf("%s: train/test correlation %g, want > 0", id, corr)
		}
	}
	var local, expansive float64
	note("fig5i", "event detection recall (avg of 3 schedules): ", "local %g vs expansive %g", &local, &expansive)
	if local <= expansive {
		t.Errorf("fig5i: local recall %g ≤ expansive %g; the known deviation moved, update EXPERIMENTS.md", local, expansive)
	}
	var top4 float64
	note("fig6b", "top four measured: ", "%g", &top4)
	if top4 < 0.38 || top4 > 0.44 {
		t.Errorf("fig6b: the top four causes hold %g of the window, Known deviation 2 says 0.41 (±0.03)", top4)
	}
	var led []string
	for _, line := range section("fig6c") {
		if f := strings.Fields(line); len(f) >= 3 && strings.HasPrefix(f[0], "psi") {
			led = append(led, f[2])
		}
	}
	if len(led) != 4 || slices.ContainsFunc(led, func(m string) bool { return strings.HasPrefix(m, "Loop_counter=") }) {
		t.Errorf("fig6c: rows led by %q, want four and none led by Loop_counter (Known deviation 2)", led)
	}
	var healthy, window float64
	note("fig6a", "mean PRR: ", "healthy days %g vs degraded window %g", &healthy, &window)
	if healthy <= window {
		t.Errorf("fig6a: healthy-day PRR %g ≤ window PRR %g", healthy, window)
	}

	// baselines: detected/total windows and attributed/total multi-cause
	// states per approach, from the "24/24 (100%)" cells.
	type tally struct{ windows, ofWindows, attributed, ofMulti int }
	tallies := map[string]tally{}
	for _, line := range section("baselines") {
		var name string
		var c tally
		if n, _ := fmt.Sscanf(line, "%s %d/%d %s %d/%d", &name, &c.windows, &c.ofWindows, new(string), &c.attributed, &c.ofMulti); n == 6 {
			tallies[name] = c
		}
	}
	vn, sym := tallies["VN2"], tallies["Sympathy-style"]
	if vn.ofWindows == 0 || vn.windows != vn.ofWindows || vn.windows <= sym.windows {
		t.Errorf("baselines: VN2 detects %d/%d windows and Sympathy-style %d, want all and strictly more", vn.windows, vn.ofWindows, sym.windows)
	}
	if vn.ofMulti == 0 || vn.attributed != vn.ofMulti || sym.attributed != 0 {
		t.Errorf("baselines: VN2 attributes %d/%d multi-cause states and Sympathy-style %d, want all and none", vn.attributed, vn.ofMulti, sym.attributed)
	}

	// fig5g: reboots light up causes of their own (reboot strength at least
	// twice the failure strength on two or more) and failures at least one.
	var rebootLed, failureLed int
	for _, line := range section("fig5g") {
		var cause string
		var failure, reboot float64
		if n, _ := fmt.Sscanf(line, "%s %g %g", &cause, &failure, &reboot); n == 3 && strings.HasPrefix(cause, "psi") {
			if reboot >= 2*failure {
				rebootLed++
			}
			if failure >= 2*reboot {
				failureLed++
			}
		}
	}
	if rebootLed < 2 || failureLed < 1 {
		t.Errorf("fig5g: %d causes at ≥ 2× on reboots and %d at ≥ 2× on failures, want ≥ 2 and ≥ 1", rebootLed, failureLed)
	}

	counts := map[string]float64{}
	for _, line := range section("threshold") {
		if f := strings.Fields(line); len(f) == 3 {
			counts[f[0]], _ = strconv.ParseFloat(f[1], 64)
		}
	}
	at01 := counts["0.0100"]
	for _, th := range []string{"0.0050", "0.0100", "0.0200", "0.0500"} {
		if c, ok := counts[th]; !ok || at01 == 0 || c < 0.95*at01 || c > 1.05*at01 {
			t.Errorf("threshold %s: %g exceptions, want within 5%% of %g at 0.0100", th, c, at01)
		}
	}
}
