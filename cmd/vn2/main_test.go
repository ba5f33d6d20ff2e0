package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/vn2"
)

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-arg run succeeded")
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("bogus subcommand err = %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help err = %v", err)
	}
}

func TestTracegenTrainDiagnosePipeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	modelPath := filepath.Join(dir, "model.json")

	// Generate a small testbed trace.
	if err := run([]string{"tracegen", "-scenario", "testbed-expansive", "-seed", "3", "-out", tracePath}); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	info, err := os.Stat(tracePath)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}

	// Train a model on it.
	if err := run([]string{"train", "-in", tracePath, "-out", modelPath, "-rank", "8", "-all-states"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if info, err := os.Stat(modelPath); err != nil || info.Size() == 0 {
		t.Fatalf("model file missing or empty: %v", err)
	}

	// Diagnose the trace with the model (output goes to stdout; only the
	// exit status is checked here).
	if err := run([]string{"diagnose", "-model", modelPath, "-in", tracePath}); err != nil {
		t.Fatalf("diagnose: %v", err)
	}
}

// TestUpdateSubcommand: train -> update round-trips a model through the
// warm-start path. The updated file must load, keep the parent's rank,
// metric names, and scale (the comparability contract of vn2.Update), carry
// a bumped generation with provenance, and still diagnose the trace.
func TestUpdateSubcommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	freshPath := filepath.Join(dir, "fresh.csv")
	modelPath := filepath.Join(dir, "model.json")
	updatedPath := filepath.Join(dir, "updated.json")

	if err := run([]string{"tracegen", "-scenario", "testbed-expansive", "-seed", "11", "-out", tracePath}); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	if err := run([]string{"tracegen", "-scenario", "testbed-expansive", "-seed", "12", "-out", freshPath}); err != nil {
		t.Fatalf("tracegen fresh: %v", err)
	}
	if err := run([]string{"train", "-in", tracePath, "-out", modelPath, "-rank", "6", "-all-states"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run([]string{"update", "-model", modelPath, "-in", freshPath, "-out", updatedPath, "-all-states"}); err != nil {
		t.Fatalf("update: %v", err)
	}

	mf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	parent, parentMeta, err := vn2.LoadVersioned(mf)
	mf.Close()
	if err != nil {
		t.Fatalf("load parent: %v", err)
	}
	if parentMeta.ModelVersion != 0 {
		t.Fatalf("cold-trained model carries generation %d, want 0", parentMeta.ModelVersion)
	}
	uf, err := os.Open(updatedPath)
	if err != nil {
		t.Fatal(err)
	}
	updated, meta, err := vn2.LoadVersioned(uf)
	uf.Close()
	if err != nil {
		t.Fatalf("load updated: %v", err)
	}
	if meta.ModelVersion != 2 || meta.Parent != 1 || meta.Origin != "update" {
		t.Errorf("updated meta = %+v, want generation 2 from parent 1 via update", meta)
	}
	if meta.SavedAt.IsZero() {
		t.Error("updated meta has no SavedAt")
	}
	if updated.Rank != parent.Rank {
		t.Errorf("update changed rank %d -> %d", parent.Rank, updated.Rank)
	}
	if !reflect.DeepEqual(updated.Scale, parent.Scale) {
		t.Error("update changed the normalization scale; residuals across generations are incomparable")
	}
	if !reflect.DeepEqual(updated.MetricNames, parent.MetricNames) {
		t.Error("update changed the metric names")
	}

	// Updating an already-updated file keeps climbing the generation chain.
	chainPath := filepath.Join(dir, "gen3.json")
	if err := run([]string{"update", "-model", updatedPath, "-in", tracePath, "-out", chainPath, "-all-states"}); err != nil {
		t.Fatalf("second update: %v", err)
	}
	cf, err := os.Open(chainPath)
	if err != nil {
		t.Fatal(err)
	}
	_, chainMeta, err := vn2.LoadVersioned(cf)
	cf.Close()
	if err != nil {
		t.Fatalf("load gen3: %v", err)
	}
	if chainMeta.ModelVersion != 3 || chainMeta.Parent != 2 {
		t.Errorf("gen3 meta = %+v, want generation 3 from parent 2", chainMeta)
	}

	// The updated model still serves the diagnose path.
	if err := run([]string{"diagnose", "-model", updatedPath, "-in", freshPath}); err != nil {
		t.Fatalf("diagnose with updated model: %v", err)
	}

	if err := run([]string{"update"}); err == nil {
		t.Error("update without flags succeeded")
	}
	if err := run([]string{"update", "-model", modelPath, "-in", "/nonexistent.csv"}); err == nil {
		t.Error("update with missing trace succeeded")
	}
}

func TestTracegenUnknownScenario(t *testing.T) {
	if err := run([]string{"tracegen", "-scenario", "mars"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestTrainRequiresInput(t *testing.T) {
	if err := run([]string{"train"}); err == nil {
		t.Error("train without -in succeeded")
	}
	if err := run([]string{"train", "-in", "/nonexistent/file.csv"}); err == nil {
		t.Error("train with missing file succeeded")
	}
}

func TestDiagnoseRequiresFlags(t *testing.T) {
	if err := run([]string{"diagnose"}); err == nil {
		t.Error("diagnose without flags succeeded")
	}
	if err := run([]string{"diagnose", "-model", "/nope.json", "-in", "/nope.csv"}); err == nil {
		t.Error("diagnose with missing files succeeded")
	}
}

func TestSimulateRuns(t *testing.T) {
	if err := run([]string{"simulate", "-nodes", "9", "-epochs", "3", "-seed", "2"}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
}

func TestExperimentUnknownID(t *testing.T) {
	err := run([]string{"experiment", "nonexistent", "-quick"})
	if err == nil || err.Error() != `unknown experiment "nonexistent"` {
		t.Errorf("err = %v, want unknown experiment \"nonexistent\"", err)
	}
}

func TestExperimentTable1(t *testing.T) {
	if err := run([]string{"experiment", "table1", "-quick"}); err != nil {
		t.Fatalf("experiment table1: %v", err)
	}
}

func TestExperimentFlagBeforeID(t *testing.T) {
	// Both orders must work: "experiment -quick table1" and
	// "experiment table1 -quick".
	if err := run([]string{"experiment", "-quick", "table1"}); err != nil {
		t.Fatalf("flags-first order: %v", err)
	}
}

func TestExplainSubcommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	modelPath := filepath.Join(dir, "model.json")
	if err := run([]string{"tracegen", "-scenario", "testbed-local", "-seed", "4", "-out", tracePath}); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	if err := run([]string{"train", "-in", tracePath, "-out", modelPath, "-rank", "6", "-all-states"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run([]string{"explain", "-model", modelPath}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := run([]string{"explain"}); err == nil {
		t.Error("explain without -model succeeded")
	}
	if err := run([]string{"explain", "-model", "/nope.json"}); err == nil {
		t.Error("explain with missing model succeeded")
	}
}

func TestEpochsSubcommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	modelPath := filepath.Join(dir, "model.json")
	if err := run([]string{"tracegen", "-scenario", "testbed-expansive", "-seed", "5", "-out", tracePath}); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	if err := run([]string{"train", "-in", tracePath, "-out", modelPath, "-rank", "6", "-all-states"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run([]string{"epochs", "-model", modelPath, "-in", tracePath}); err != nil {
		t.Fatalf("epochs: %v", err)
	}
	if err := run([]string{"epochs"}); err == nil {
		t.Error("epochs without flags succeeded")
	}
}

// TestRouterFlags pins the router's option surface: the hold queue is gone
// and took -hold with it, the retry ladder took -attempts, and -h lists
// exactly the flags that remain.
func TestRouterFlags(t *testing.T) {
	// The flag package prints usage to os.Stderr; capture it for the -h case.
	stderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	holdErr := run([]string{"router", "-hold", "1"})
	attemptsErr := run([]string{"router", "-attempts", "4"})
	helpErr := run([]string{"router", "-h"})
	os.Stderr = stderr
	pw.Close()
	out, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}

	if holdErr == nil || !strings.Contains(holdErr.Error(), "flag provided but not defined: -hold") {
		t.Errorf("router -hold 1: err = %v, want an unknown-flag error", holdErr)
	}
	if attemptsErr == nil || !strings.Contains(attemptsErr.Error(), "flag provided but not defined: -attempts") {
		t.Errorf("router -attempts 4: err = %v, want an unknown-flag error", attemptsErr)
	}
	if !errors.Is(helpErr, flag.ErrHelp) {
		t.Errorf("router -h: err = %v, want flag.ErrHelp", helpErr)
	}
	// Each run printed the usage once; the flag set is the same every time.
	listed := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			listed[strings.Fields(name)[0]] = true
		}
	}
	want := []string{"addr", "shards", "seed", "probe-interval"}
	if len(listed) != len(want) {
		t.Errorf("router -h lists %v, want exactly %v", listed, want)
	}
	for _, name := range want {
		if !listed[name] {
			t.Errorf("router -h does not list -%s (got %v)", name, listed)
		}
	}
}
