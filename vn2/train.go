package vn2

import (
	"fmt"
	"math"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/metricspec"
	"github.com/wsn-tools/vn2/internal/nmf"
	"github.com/wsn-tools/vn2/internal/trace"
)

// TrainConfig controls the training pipeline of Section IV.
type TrainConfig struct {
	// Rank fixes the compression factor r. Zero triggers automatic
	// selection via a rank sweep (the Fig. 3(b) procedure).
	Rank int
	// SweepMin/SweepMax bound automatic rank selection. Defaults: 5..40
	// (clamped to the data size).
	SweepMin, SweepMax int
	// SweepStep is the sweep granularity; defaults to 5.
	SweepStep int
	// CompressAllStates skips exception extraction and factorizes every
	// state, as the paper does for the small testbed trace where "normal
	// statuses are not large enough to conceal the representation of
	// exceptions".
	CompressAllStates bool
	// MaxIter bounds NMF sweeps; 0 uses 300.
	MaxIter int
	// Seed drives NMF initialization.
	Seed int64
	// Workers bounds the goroutines of the rank-selection sweep, which runs
	// its independent factorizations concurrently: 0 keeps it sequential,
	// ≥1 fans out, negative uses GOMAXPROCS. The final factorization runs
	// on the caller. The trained model is bit-identical for any value.
	Workers int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.SweepMin == 0 {
		c.SweepMin = 5
	}
	if c.SweepMax == 0 {
		c.SweepMax = 40
	}
	if c.SweepStep == 0 {
		c.SweepStep = 5
	}
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	return c
}

// TrainReport carries training diagnostics.
type TrainReport struct {
	// TotalStates is the input state count; ExceptionStates is how many
	// survived exception extraction (equal when CompressAllStates).
	TotalStates, ExceptionStates int
	// RankSweep holds the Fig. 3(b) points when automatic selection ran.
	RankSweep []nmf.RankPoint
	// SelectedRank is the rank actually used.
	SelectedRank int
	// Accuracy is α = ‖E−WΨ‖ with the original W; SparseAccuracy with the
	// sparsified W̄.
	Accuracy, SparseAccuracy float64
	// Iterations is the NMF sweep count of the final factorization.
	Iterations int
	// W is the (sparsified) correlation-strength matrix over the training
	// exceptions — each row quantizes how much each root cause explains
	// that exception (Fig. 3(c) / Fig. 5(b)).
	W *mat.Dense
	// ExceptionIndices maps W's rows back into the input state slice.
	ExceptionIndices []int
}

// Train runs the full VN2 training pipeline on node states: exception
// extraction (Section IV-B), NMF compression (Algorithm 1), basis
// sparsification (Algorithm 2), rank selection when requested, and signed
// signature computation for interpretation.
func Train(states []trace.StateVector, cfg TrainConfig) (*Model, *TrainReport, error) {
	cfg = cfg.withDefaults()
	det, workingStates, report, err := extract(states, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Normalization for factorization uses the population spread over ALL
	// states (anomalies included) so every column lands on a comparable
	// scale; the detector's robust scale would explode quiet metrics whose
	// only variation is anomalous.
	scale := populationScale(states)
	e, err := statesMatrix(workingStates, scale)
	if err != nil {
		return nil, nil, fmt.Errorf("build matrix: %w", err)
	}

	rank := cfg.Rank
	if rank == 0 {
		rank, report.RankSweep, err = selectRank(e, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("select rank: %w", err)
		}
	}
	if max := minInt(e.Rows(), e.Cols()); rank > max {
		rank = max
	}
	report.SelectedRank = rank

	res, err := nmf.Factorize(e, nmf.Config{
		Rank:    rank,
		MaxIter: cfg.MaxIter,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("factorize: %w", err)
	}
	return finish(res, e, workingStates, report, scale, metricNamesFor(e.Cols()),
		&trace.Detector{Center: det.Center, Scale: det.Scale, RefMax: det.RefMax})
}

// finish completes a factorization of e, the working states under scale,
// for Train and Update alike: accuracy, sparsification, sparse accuracy,
// then the model with its signed signatures and cached Gram matrix.
func finish(res *nmf.Result, e *mat.Dense, working []trace.StateVector, report *TrainReport,
	scale []float64, names []string, cal *trace.Detector) (*Model, *TrainReport, error) {
	report.Iterations = res.Iterations
	var err error
	if report.Accuracy, err = res.Accuracy(e); err != nil {
		return nil, nil, fmt.Errorf("accuracy: %w", err)
	}
	sparseW, err := nmf.Sparsify(res.W, nmf.DefaultKeepFraction)
	if err != nil {
		return nil, nil, fmt.Errorf("sparsify: %w", err)
	}
	if report.SparseAccuracy, err = nmf.Accuracy(e, sparseW, res.Psi); err != nil {
		return nil, nil, fmt.Errorf("sparse accuracy: %w", err)
	}
	report.W = sparseW
	model := &Model{
		Psi:         res.Psi,
		Scale:       scale,
		MetricNames: names,
		Rank:        report.SelectedRank,
		Keep:        nmf.DefaultKeepFraction,
		TrainStates: len(working),
		Calibration: cal,
	}
	model.Signatures = signedSignatures(working, sparseW, scale)
	model.cacheGram()
	return model, report, nil
}

// extract runs the Section IV-B detector over states and picks what to
// factorize: its exceptions, or every state with CompressAllStates.
func extract(states []trace.StateVector, cfg TrainConfig) (*trace.ExceptionResult, []trace.StateVector, *TrainReport, error) {
	if len(states) == 0 {
		return nil, nil, nil, ErrNoStates
	}
	det, err := trace.DetectExceptions(states, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("detect exceptions: %w", err)
	}
	report := &TrainReport{TotalStates: len(states)}
	var working []trace.StateVector
	if cfg.CompressAllStates {
		working = states
		report.ExceptionIndices = make([]int, len(states))
		for i := range states {
			report.ExceptionIndices[i] = i
		}
	} else {
		working = det.Exceptions(states)
		report.ExceptionIndices = append([]int(nil), det.Indices...)
	}
	report.ExceptionStates = len(working)
	if len(working) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: no exceptions above threshold", ErrNoStates)
	}
	return det, working, report, nil
}

// populationScale is the per-metric population standard deviation over all
// states, floored so constant metrics stay harmless.
func populationScale(states []trace.StateVector) []float64 {
	m := len(states[0].Delta)
	mean := make([]float64, m)
	for _, s := range states {
		for k, v := range s.Delta {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= float64(len(states))
	}
	scale := make([]float64, m)
	for _, s := range states {
		for k, v := range s.Delta {
			d := v - mean[k]
			scale[k] += d * d
		}
	}
	for k := range scale {
		scale[k] = math.Sqrt(scale[k] / float64(len(states)))
		if scale[k] < 1e-9 {
			scale[k] = 1e-9
		}
	}
	return scale
}

// selectRank runs the Fig. 3(b) sweep and applies the paper's criterion.
func selectRank(e *mat.Dense, cfg TrainConfig) (int, []nmf.RankPoint, error) {
	maxRank := minInt(minInt(e.Rows(), e.Cols()), cfg.SweepMax)
	minRank := minInt(cfg.SweepMin, maxRank)
	// Parallelism goes to the sweep points (independent factorizations,
	// the Fig. 3(b) fan-out); each point's factorization is sequential.
	points, err := nmf.SweepRanks(e, nmf.SweepConfig{
		MinRank: minRank,
		MaxRank: maxRank,
		Step:    cfg.SweepStep,
		Workers: cfg.Workers,
		Base: nmf.Config{
			MaxIter: cfg.MaxIter,
			Seed:    cfg.Seed,
		},
	})
	if err != nil {
		return 0, nil, err
	}
	rank, err := nmf.SelectRank(points)
	if err != nil {
		return 0, nil, err
	}
	return rank, points, nil
}

// signedSignatures computes each root cause's signed metric profile: the
// W-weighted mean of the signed normalized training states, scaled so the
// largest magnitude per row is 1. This recovers the direction information
// the magnitude factorization discards, reproducing the Fig. 4 view.
func signedSignatures(states []trace.StateVector, w *mat.Dense, scale []float64) *mat.Dense {
	r := w.Cols()
	m := len(scale)
	sig := mat.MustNew(r, m)
	for j := 0; j < r; j++ {
		var totalWeight float64
		row := sig.RawRow(j)
		for i, s := range states {
			wij := w.At(i, j)
			if wij == 0 {
				continue
			}
			totalWeight += wij
			for k, v := range s.Delta {
				row[k] += wij * (v / scale[k])
			}
		}
		if totalWeight > 0 {
			maxAbs := 0.0
			for k := range row {
				row[k] /= totalWeight
				if a := math.Abs(row[k]); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs > 0 {
				for k := range row {
					row[k] /= maxAbs
				}
			}
		}
	}
	return sig
}

// metricNamesFor labels the columns: the canonical 43 names when M matches,
// generic labels otherwise (the library stays usable on other metric sets).
func metricNamesFor(m int) []string {
	if m == metricspec.MetricCount {
		return metricspec.Names()
	}
	out := make([]string, m)
	for i := range out {
		out[i] = fmt.Sprintf("metric_%d", i)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
