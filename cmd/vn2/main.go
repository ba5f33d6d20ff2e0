// Command vn2 is the command-line front end of the VN2 reproduction:
// trace generation, model training, state diagnosis, network simulation,
// and regeneration of every table and figure of the paper's evaluation.
//
// Usage:
//
//	vn2 tracegen   -scenario citysee|september|testbed-local|testbed-expansive -out trace.csv
//	vn2 train      -in trace.csv -out model.json [-rank r] [-all-states]
//	vn2 update     -model model.json -in trace.csv -out new-model.json [-all-states]
//	vn2 diagnose   -model model.json -in trace.csv
//	vn2 explain    -model model.json
//	vn2 epochs     -model model.json -in trace.csv
//	vn2 simulate   [-nodes n] [-epochs e] [-seed s]
//	vn2 serve      -model model.json -calibrate trace.csv [-addr host:port] [-snapshot file] [-wal dir]
//	vn2 router     -shards url1,url2,... [-addr host:port] [-seed s]
//	vn2 chaos      [-seed s] [-drop p] [-dup p] [-delay p] [-truncate p] [-kill-epoch n] [-tolerance x] [-transport json|bin|stream] [-shards k]
//	vn2 experiment [table1|fig3a|fig3b|fig3c|fig4|fig5|fig6|baselines|prrest|all] [-quick] [-seed s]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/wsn-tools/vn2/internal/experiments"
	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/internal/wsn"
	"github.com/wsn-tools/vn2/vn2"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vn2:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "tracegen":
		return cmdTracegen(args[1:])
	case "train":
		return cmdTrain(args[1:])
	case "update":
		return cmdUpdate(args[1:])
	case "diagnose":
		return cmdDiagnose(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "epochs":
		return cmdEpochs(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "router":
		return cmdRouter(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "experiment":
		return cmdExperiment(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `vn2 — network performance visibility for sensor networks (ICDCS'14 reproduction)

subcommands:
  tracegen    generate a synthetic deployment trace (CSV)
  train       train a representative matrix Psi from a trace
  update      warm-start retrain an existing model on fresh states (bumps its generation)
  diagnose    attribute states in a trace to root causes using a model
  explain     print every root cause of a model with its interpretation
  epochs      network-level combination diagnosis, one line per epoch
  simulate    run the WSN simulator and print per-epoch PRR
  serve       run the online sink service (streaming detection + diagnosis over HTTP)
  router      run the cluster front door: consistent-hash routing to serve shards, merged /fleet view
  chaos       prove crash-safe ingest: fault-injected run + kill -9 vs fault-free baseline
  experiment  regenerate the paper's tables and figures
`)
}

func cmdTracegen(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	scenario := fs.String("scenario", "citysee", "citysee | september | testbed-local | testbed-expansive")
	out := fs.String("out", "", "output CSV path (default stdout)")
	seed := fs.Int64("seed", 1, "random seed")
	nodes := fs.Int("nodes", 0, "CitySee node count (default 286)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var res *tracegen.Result
	var err error
	switch *scenario {
	case "citysee":
		res, err = tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: *seed, Nodes: *nodes})
	case "september":
		res, _, err = tracegen.CitySeeSeptember(tracegen.CitySeeOptions{Seed: *seed, Nodes: *nodes})
	case "testbed-local":
		res, err = tracegen.Testbed(tracegen.TestbedOptions{Seed: *seed, Scenario: tracegen.ScenarioLocal})
	case "testbed-expansive":
		res, err = tracegen.Testbed(tracegen.TestbedOptions{Seed: *seed, Scenario: tracegen.ScenarioExpansive})
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	w, closeFn, err := outputWriter(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	if err := res.Dataset.WriteCSV(w); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	fmt.Fprintf(os.Stderr, "generated %d reports over %d epochs from %d nodes (%d ground-truth events)\n",
		res.Dataset.Len(), res.Epochs, res.TotalNodes, len(res.Events))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	in := fs.String("in", "", "input trace CSV (required)")
	out := fs.String("out", "", "output model JSON path (default stdout)")
	rank := fs.Int("rank", 0, "compression factor r (0 = automatic sweep)")
	allStates := fs.Bool("all-states", false, "compress all states instead of extracting exceptions")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "training goroutines (0 sequential, -1 all cores); output is identical for any value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("train: -in is required")
	}
	ds, err := readTrace(*in)
	if err != nil {
		return err
	}
	model, report, err := vn2.Train(ds.States(), vn2.TrainConfig{
		Rank:              *rank,
		CompressAllStates: *allStates,
		Seed:              *seed,
		Workers:           *workers,
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	w, closeFn, err := outputWriter(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	if err := model.Save(w); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trained Psi(%dx%d) from %d/%d exception states; alpha=%.4f sparse=%.4f\n",
		model.Rank, model.Metrics(), report.ExceptionStates, report.TotalStates,
		report.Accuracy, report.SparseAccuracy)
	return nil
}

// cmdUpdate is the CLI face of the serve lifecycle's shadow retrain: it
// warm-starts vn2.Update from an existing model on a fresh trace and writes
// the result with its generation bumped (parent = old generation, origin
// "update"), so offline retrains and hot-swapped retrains share one
// provenance trail.
func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	modelPath := fs.String("model", "", "existing model JSON path (required)")
	in := fs.String("in", "", "input trace CSV with the fresh states (required)")
	out := fs.String("out", "", "output model JSON path (default stdout)")
	allStates := fs.Bool("all-states", false, "retrain on all states instead of extracted exceptions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *in == "" {
		return fmt.Errorf("update: -model and -in are required")
	}
	model, meta, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ds, err := readTrace(*in)
	if err != nil {
		return err
	}
	next, report, err := model.Update(ds.States(), vn2.TrainConfig{
		CompressAllStates: *allStates,
	})
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	parent := meta.ModelVersion
	if parent == 0 {
		parent = 1 // pre-lifecycle files are generation 1
	}
	w, closeFn, err := outputWriter(*out)
	if err != nil {
		return err
	}
	defer closeFn()
	nextMeta := vn2.ModelMeta{
		ModelVersion: parent + 1,
		Parent:       parent,
		Origin:       "update",
		SavedAt:      time.Now().UTC(),
	}
	if err := next.SaveVersioned(w, nextMeta); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	fmt.Fprintf(os.Stderr, "updated Psi(%dx%d) gen %d -> %d from %d/%d exception states; alpha=%.4f sparse=%.4f\n",
		next.Rank, next.Metrics(), parent, nextMeta.ModelVersion,
		report.ExceptionStates, report.TotalStates, report.Accuracy, report.SparseAccuracy)
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model JSON path (required)")
	in := fs.String("in", "", "input trace CSV (required)")
	workers := fs.Int("workers", 0, "diagnosis goroutines (0 sequential, -1 all cores); output is identical for any value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *in == "" {
		return fmt.Errorf("diagnose: -model and -in are required")
	}
	model, _, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ds, err := readTrace(*in)
	if err != nil {
		return err
	}
	states := ds.States()
	det, err := trace.DetectExceptions(states, 0)
	if err != nil {
		return fmt.Errorf("detect exceptions: %w", err)
	}
	states = det.Exceptions(states)
	if len(states) == 0 {
		fmt.Println("no states to diagnose")
		return nil
	}
	diags, err := model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: *workers})
	if err != nil {
		return fmt.Errorf("diagnose: %w", err)
	}
	for i, d := range diags {
		s := states[i]
		fmt.Printf("node %d epoch %d: ", s.Node, s.Epoch)
		if len(d.Ranked) == 0 {
			fmt.Println("normal")
			continue
		}
		for k, rc := range d.Ranked {
			if k >= 3 {
				break
			}
			exp, err := model.Explain(rc.Cause, 3)
			if err != nil {
				return err
			}
			if k > 0 {
				fmt.Print("; ")
			}
			fmt.Printf("psi%d(%.3f, %s)", rc.Cause+1, rc.Strength, exp.Category)
		}
		fmt.Printf("  residual=%.3f\n", d.Residual)
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	nodes := fs.Int("nodes", 45, "node count (grid)")
	epochs := fs.Int("epochs", 20, "epochs to run")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cols := 5
	rows := (*nodes + cols - 1) / cols
	topo, err := wsn.GridTopology(rows, cols, 10)
	if err != nil {
		return err
	}
	n, err := wsn.New(wsn.Config{Seed: *seed, Topology: topo})
	if err != nil {
		return err
	}
	for i := 0; i < *epochs; i++ {
		r, err := n.Step()
		if err != nil {
			return err
		}
		fmt.Printf("epoch %3d  PRR %.3f  generated %d delivered %d reports %d\n",
			r.Epoch, r.PRR, r.Generated, r.Delivered, len(r.Reports))
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink workloads for a fast run")
	seed := fs.Int64("seed", 17, "random seed")
	// Accept the experiment id before the flags (flag parsing stops at the
	// first positional argument).
	id := "all"
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		id = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		id = fs.Arg(0)
	}
	tables, err := experiments.NewRunner(experiments.Options{Seed: *seed, Quick: *quick}).Run(id)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// readTrace reads the trace CSV at path.
func readTrace(path string) (*trace.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := trace.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	return ds, nil
}

// loadModel reads the model file at path and its lifecycle meta.
func loadModel(path string) (*vn2.Model, vn2.ModelMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, vn2.ModelMeta{}, err
	}
	defer f.Close()
	model, meta, err := vn2.LoadVersioned(f)
	if err != nil {
		return nil, meta, fmt.Errorf("load model: %w", err)
	}
	return model, meta, nil
}

// outputWriter opens path for writing, or stdout when path is empty.
func outputWriter(path string) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { _ = f.Close() }, nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model JSON path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("explain: -model is required")
	}
	model, _, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	fmt.Printf("Psi(%dx%d), trained on %d exception states, keep=%.0f%%\n",
		model.Rank, model.Metrics(), model.TrainStates, model.Keep*100)
	for j := 0; j < model.Rank; j++ {
		exp, err := model.Explain(j, 5)
		if err != nil {
			return err
		}
		fmt.Println(exp.Summary())
		for _, h := range exp.Hazards {
			sp, err := lookupMetricName(h.Metric)
			if err != nil {
				return err
			}
			fmt.Printf("    hazard[%s]: %s\n", sp, h.Event)
		}
	}
	return nil
}

func lookupMetricName(id metricspec.ID) (string, error) {
	sp, err := metricspec.Lookup(id)
	if err != nil {
		return "", err
	}
	return sp.Name, nil
}

func cmdEpochs(args []string) error {
	fs := flag.NewFlagSet("epochs", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model JSON path (required)")
	in := fs.String("in", "", "input trace CSV (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *in == "" {
		return fmt.Errorf("epochs: -model and -in are required")
	}
	model, _, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ds, err := readTrace(*in)
	if err != nil {
		return err
	}
	states := ds.States()
	if len(states) == 0 {
		fmt.Println("no states to diagnose")
		return nil
	}
	eds, err := model.DiagnoseEpochs(states, vn2.DiagnoseConfig{Workers: -1})
	if err != nil {
		return fmt.Errorf("diagnose epochs: %w", err)
	}
	for _, ed := range eds {
		var total float64
		for _, v := range ed.Distribution {
			total += v
		}
		fmt.Printf("epoch %4d  states %3d  total %8.2f  ", ed.Epoch, ed.States, total)
		for k, rc := range ed.Combination {
			if k >= 3 {
				break
			}
			if k > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("psi%d(%.1f,%d nodes)", rc.Cause+1, rc.Strength, len(ed.AffectedNodes[rc.Cause]))
		}
		fmt.Println()
	}
	return nil
}
