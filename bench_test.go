// Package bench holds the benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus ablation benches for the design
// choices called out in DESIGN.md. Expensive fixtures (traces, trained
// models) are built once and shared across benchmarks.
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/baseline"
	"github.com/wsn-tools/vn2/internal/experiments"
	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nmf"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/internal/wsn"
	"github.com/wsn-tools/vn2/vn2"
)

// fixtures are the shared expensive artifacts.
type fixtures struct {
	training   *tracegen.Result
	states     []trace.StateVector
	det        *trace.ExceptionResult
	exceptions []trace.StateVector
	model      *vn2.Model
	report     *vn2.TrainReport
	testbed    *tracegen.Result
}

var (
	fixOnce sync.Once
	fix     *fixtures
	fixErr  error
)

// sharedFixtures builds (once) the quick-scale CitySee trace, its exception
// set, and a trained model.
func sharedFixtures(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() {
		f := &fixtures{}
		f.training, fixErr = tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: 17, Days: 2, Nodes: 60})
		if fixErr != nil {
			return
		}
		f.states = f.training.Dataset.States()
		f.det, fixErr = trace.DetectExceptions(f.states, 0)
		if fixErr != nil {
			return
		}
		f.exceptions = f.det.Exceptions(f.states)
		f.model, f.report, fixErr = vn2.Train(f.states, vn2.TrainConfig{Rank: 10, Seed: 17})
		if fixErr != nil {
			return
		}
		f.testbed, fixErr = tracegen.Testbed(tracegen.TestbedOptions{Seed: 17, Epochs: 24})
		if fixErr != nil {
			return
		}
		fix = f
	})
	if fixErr != nil {
		b.Fatalf("build fixtures: %v", fixErr)
	}
	return fix
}

// --- Table I ---------------------------------------------------------------

// BenchmarkTableI regenerates the Table I catalog rendering.
func BenchmarkTableI(b *testing.B) {
	r := experiments.NewRunner(experiments.Options{Seed: 17, Quick: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := r.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3 ----------------------------------------------------------------

// BenchmarkFig3aExceptionDetection measures the Section IV-B detector over
// the full training trace (the Fig. 3a machinery).
func BenchmarkFig3aExceptionDetection(b *testing.B) {
	f := sharedFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := trace.DetectExceptions(f.states, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(det.Indices) == 0 {
			b.Fatal("no exceptions")
		}
	}
	b.ReportMetric(float64(len(f.states)), "states")
}

// BenchmarkFig3bRankSweep measures the Fig. 3b rank-selection sweep over
// the exception matrix.
func BenchmarkFig3bRankSweep(b *testing.B) {
	f := sharedFixtures(b)
	e := exceptionMatrix(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := nmf.SweepRanks(e, nmf.SweepConfig{
			MinRank: 5, MaxRank: 20, Step: 5,
			Base: nmf.Config{MaxIter: 100, Seed: 17},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

// exceptionMatrix normalizes the exception states into the NMF input the
// same way training does: per-metric population standard deviation over
// ALL states, floored.
func exceptionMatrix(b *testing.B, f *fixtures) *mat.Dense {
	b.Helper()
	m := len(f.det.Scale)
	mean := make([]float64, m)
	for _, s := range f.states {
		for k, v := range s.Delta {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= float64(len(f.states))
	}
	scale := make([]float64, m)
	for _, s := range f.states {
		for k, v := range s.Delta {
			d := v - mean[k]
			scale[k] += d * d
		}
	}
	for k := range scale {
		scale[k] = math.Sqrt(scale[k] / float64(len(f.states)))
		if scale[k] < 1e-9 {
			scale[k] = 1e-9
		}
	}
	e := mat.MustNew(len(f.exceptions), m)
	for i, s := range f.exceptions {
		row := e.RawRow(i)
		for k, v := range s.Delta {
			av := v / scale[k]
			if av < 0 {
				av = -av
			}
			row[k] = av
		}
	}
	return e
}

// BenchmarkFig3cCorrelation measures computing the exception↔cause
// correlation matrix (batch NNLS projection, the Fig. 3c scatter data).
func BenchmarkFig3cCorrelation(b *testing.B) {
	f := sharedFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err := f.model.CorrelationMatrix(f.exceptions, vn2.DiagnoseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if cm.Rows() != len(f.exceptions) {
			b.Fatal("shape")
		}
	}
	b.ReportMetric(float64(len(f.exceptions)), "exceptions")
}

// --- Fig. 4 ----------------------------------------------------------------

// BenchmarkFig4Interpret measures root-cause interpretation (Problem 2) for
// every learned cause.
func BenchmarkFig4Interpret(b *testing.B) {
	f := sharedFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < f.model.Rank; j++ {
			exp, err := f.model.Explain(j, 5)
			if err != nil {
				b.Fatal(err)
			}
			if exp.Summary() == "" {
				b.Fatal("empty summary")
			}
		}
	}
}

// --- Fig. 5 ----------------------------------------------------------------

// BenchmarkFig5Testbed measures a full testbed scenario: simulation with
// failure/reboot injection plus training and train/test diagnosis.
func BenchmarkFig5Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := tracegen.Testbed(tracegen.TestbedOptions{Seed: 17, Epochs: 24})
		if err != nil {
			b.Fatal(err)
		}
		states := res.Dataset.States()
		model, _, err := vn2.Train(states, vn2.TrainConfig{
			Rank: 10, CompressAllStates: true, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		diags, err := model.DiagnoseBatch(states, vn2.DiagnoseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		dist := vn2.CauseDistribution(diags, model.Rank)
		if len(dist) != 10 {
			b.Fatal("distribution shape")
		}
	}
}

// BenchmarkFig5gEventAttribution measures attributing ground-truth event
// windows to causes (the Fig. 5g computation).
func BenchmarkFig5gEventAttribution(b *testing.B) {
	f := sharedFixtures(b)
	states := f.testbed.Dataset.States()
	model, _, err := vn2.Train(states, vn2.TrainConfig{Rank: 10, CompressAllStates: true, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	failEpochs := make(map[int]bool)
	for _, e := range f.testbed.Events {
		if e.Type == wsn.EventFail {
			failEpochs[e.Epoch] = true
		}
	}
	var eventStates []trace.StateVector
	for _, s := range states {
		if failEpochs[s.Epoch] {
			eventStates = append(eventStates, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := model.DiagnoseBatch(eventStates, vn2.DiagnoseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_ = vn2.NormalizeDistribution(vn2.CauseDistribution(diags, model.Rank))
	}
	b.ReportMetric(float64(len(eventStates)), "event_states")
}

// --- Fig. 6 ----------------------------------------------------------------

// BenchmarkFig6aPRR measures PRR-series computation from a collected
// dataset (the Fig. 6a series).
func BenchmarkFig6aPRR(b *testing.B) {
	f := sharedFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := f.training.Dataset.PRRSeries(60)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig6bWindowDiagnosis measures diagnosing a degraded window's
// states against a pre-trained Ψ (the Fig. 6b computation).
func BenchmarkFig6bWindowDiagnosis(b *testing.B) {
	f := sharedFixtures(b)
	window := f.states
	if len(window) > 2000 {
		window = window[:2000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := f.model.DiagnoseBatch(window, vn2.DiagnoseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_ = vn2.CauseDistribution(diags, f.model.Rank)
	}
	b.ReportMetric(float64(len(window)), "states")
}

// --- Baseline comparison ----------------------------------------------------

// BenchmarkBaselineComparison measures per-state diagnosis cost of the
// three approaches on the same exception stream.
func BenchmarkBaselineComparison(b *testing.B) {
	f := sharedFixtures(b)
	states := f.exceptions
	b.Run("vn2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.model.DiagnoseBatch(states, vn2.DiagnoseConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sympathy", func(b *testing.B) {
		symp := baseline.NewSympathy(baseline.SympathyConfig{})
		for i := 0; i < b.N; i++ {
			for _, s := range states {
				if _, err := symp.Diagnose(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("agnostic", func(b *testing.B) {
		agn := baseline.NewAgnostic(0)
		if err := agn.Fit(f.states[:2000]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := agn.Score(states); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationSparsify sweeps the Algorithm-2 keep fraction and
// reports the reconstruction-accuracy cost of sparsification.
func BenchmarkAblationSparsify(b *testing.B) {
	f := sharedFixtures(b)
	e := exceptionMatrix(b, f)
	res, err := nmf.Factorize(e, nmf.Config{Rank: 10, MaxIter: 200, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	for _, keep := range []float64{0.5, 0.7, 0.9, 1.0} {
		keep := keep
		b.Run(keepLabel(keep), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				sw, err := nmf.Sparsify(res.W, keep)
				if err != nil {
					b.Fatal(err)
				}
				acc, err = nmf.Accuracy(e, sw, res.Psi)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "alpha")
		})
	}
}

func keepLabel(keep float64) string {
	switch keep {
	case 0.5:
		return "keep50"
	case 0.7:
		return "keep70"
	case 0.9:
		return "keep90"
	default:
		return "keep100"
	}
}

// --- Substrate throughput -----------------------------------------------------

// BenchmarkSimulatorEpoch measures per-epoch simulation cost at CitySee
// scale (286 nodes).
func BenchmarkSimulatorEpoch(b *testing.B) {
	topo, err := wsn.RandomTopology(286, 1200, 17)
	if err != nil {
		b.Fatal(err)
	}
	n, err := wsn.New(wsn.Config{Seed: 17, Topology: topo, PacketsPerEpoch: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the routing tree.
	if _, err := n.Run(3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEndToEnd measures the complete training pipeline on the
// shared trace.
func BenchmarkTrainEndToEnd(b *testing.B) {
	f := sharedFixtures(b)
	for i := 0; i < b.N; i++ {
		model, _, err := vn2.Train(f.states, vn2.TrainConfig{Rank: 10, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		if model.Rank == 0 {
			b.Fatal("untrained")
		}
	}
	b.ReportMetric(float64(len(f.states)), "states")
}

// BenchmarkDiagnoseSingle measures single-state diagnosis latency — the
// per-report cost of an online monitor.
func BenchmarkDiagnoseSingle(b *testing.B) {
	f := sharedFixtures(b)
	state := f.exceptions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.model.Diagnose(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWarmStart compares cold-start factorization against
// resuming from a previously trained basis — the incremental-retraining
// path of a long-lived deployment.
func BenchmarkAblationWarmStart(b *testing.B) {
	f := sharedFixtures(b)
	e := exceptionMatrix(b, f)
	seedRes, err := nmf.Factorize(e, nmf.Config{Rank: 10, MaxIter: 300, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			res, err := nmf.Factorize(e, nmf.Config{Rank: 10, MaxIter: 300, Seed: 18, Tolerance: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "iterations")
	})
	b.Run("warm", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			res, err := nmf.Resume(e, seedRes.W, seedRes.Psi, nmf.Config{Rank: 10, MaxIter: 300, Tolerance: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			iters = res.Iterations
		}
		b.ReportMetric(float64(iters), "iterations")
	})
}

// BenchmarkDiagnoseBatchParallel measures batch-inference scaling across
// worker counts.
func BenchmarkDiagnoseBatchParallel(b *testing.B) {
	f := sharedFixtures(b)
	states := f.states
	if len(states) > 1000 {
		states = states[:1000]
	}
	for _, workers := range []int{0, 2, 4, 8} {
		workers := workers
		name := "seq"
		if workers > 0 {
			name = fmt.Sprintf("workers%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.model.DiagnoseBatch(states, vn2.DiagnoseConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGEMM measures the cache-blocked matmul kernel on square matrices
// across the size ladder. The 64 rung fits L1/L2 entirely (blocking is
// free), 256 spans the blocking sweet spot, and 1024 is firmly memory-bound
// — the regime the B-panel blocking exists for.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{64, 256, 1024} {
		a, err := mat.RandomPositive(size, size, rng)
		if err != nil {
			b.Fatal(err)
		}
		x, err := mat.RandomPositive(size, size, rng)
		if err != nil {
			b.Fatal(err)
		}
		dst := mat.MustNew(size, size)
		b.Run(fmt.Sprintf("size%d/seq", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.MulInto(dst, a, x)
			}
		})
	}
}

// BenchmarkCitySeeTraining measures end-to-end trace generation (one
// simulated day) across the deployment-size ladder. This is the headline
// scaling benchmark for the simulator: it exercises the spatial link pruning
// and the dense link cache together.
func BenchmarkCitySeeTraining(b *testing.B) {
	for _, nodes := range []int{60, 120, 286, 1000} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes%d/seq", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{
					Seed: 17, Days: 1, Nodes: nodes,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Dataset.Len() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
	// vn2bench's healthy set-up (benchmark/vn2bench/fleet.go): a 2-day
	// calibration trace at seed s and a 10-day live trace at s+1, 72 nodes,
	// sequential — the go-test twin of tracegen.reports_per_s.
	b.Run("fixtures72/seq", func(b *testing.B) {
		b.ReportAllocs()
		reports := 0
		for i := 0; i < b.N; i++ {
			for _, o := range []tracegen.CitySeeOptions{
				{Seed: 1, Days: 2, Nodes: 72}, {Seed: 2, Days: 10, Nodes: 72},
			} {
				res, err := tracegen.CitySeeTraining(o)
				if err != nil {
					b.Fatal(err)
				}
				reports += res.Dataset.Len()
			}
		}
		b.ReportMetric(float64(reports)/b.Elapsed().Seconds(), "reports/s")
	})
}

// BenchmarkModelUpdate measures the incremental vn2 retraining path.
func BenchmarkModelUpdate(b *testing.B) {
	f := sharedFixtures(b)
	for i := 0; i < b.N; i++ {
		updated, _, err := f.model.Update(f.states, vn2.TrainConfig{Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		if updated.Rank != f.model.Rank {
			b.Fatal("rank changed")
		}
	}
}
