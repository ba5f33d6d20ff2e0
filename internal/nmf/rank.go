package nmf

import (
	"fmt"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/par"
)

// RankPoint is one row of the Fig. 3(b) sweep: the approximation accuracy at
// a given rank using the original W and the Algorithm-2 sparsified W̄.
type RankPoint struct {
	Rank           int     `json:"rank"`
	Accuracy       float64 `json:"accuracy"`        // α with original W
	SparseAccuracy float64 `json:"sparse_accuracy"` // α with sparsified W̄
	Iterations     int     `json:"iterations"`
}

// SparsityGap returns the extra reconstruction error introduced by
// sparsifying W at this rank.
func (p RankPoint) SparsityGap() float64 { return p.SparseAccuracy - p.Accuracy }

// SweepConfig controls a rank-selection sweep.
type SweepConfig struct {
	// MinRank and MaxRank bound the sweep (inclusive). Step defaults to 1.
	MinRank, MaxRank, Step int
	// Base configures each factorization (Rank is overwritten per point).
	Base Config
	// Workers bounds the goroutines running sweep points concurrently:
	// each rank's factorization is an independent, seeded computation, so
	// points are perfectly parallel. 0 keeps the sweep sequential, ≥1 fans
	// out, negative uses GOMAXPROCS. Points are bit-identical for any value.
	Workers int
}

// SweepRanks factorizes e at each rank in [MinRank, MaxRank] and reports the
// approximation accuracy with the original and sparsified basis, reproducing
// the data behind Fig. 3(b).
func SweepRanks(e *mat.Dense, cfg SweepConfig) ([]RankPoint, error) {
	if cfg.Step <= 0 {
		cfg.Step = 1
	}
	if cfg.MinRank < 1 || cfg.MaxRank < cfg.MinRank {
		return nil, fmt.Errorf("%w: sweep [%d,%d]", ErrBadRank, cfg.MinRank, cfg.MaxRank)
	}
	var ranks []int
	for r := cfg.MinRank; r <= cfg.MaxRank; r += cfg.Step {
		ranks = append(ranks, r)
	}
	points := make([]RankPoint, len(ranks))
	err := par.Run(len(ranks), cfg.Workers, func(_, i0, i1 int) error {
		for idx := i0; idx < i1; idx++ {
			p, err := sweepPoint(e, cfg, ranks[idx])
			if err != nil {
				return err
			}
			points[idx] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// sweepPoint computes one Fig. 3(b) point: factorize at rank r, sparsify,
// and measure both accuracies.
func sweepPoint(e *mat.Dense, cfg SweepConfig, r int) (RankPoint, error) {
	fc := cfg.Base
	fc.Rank = r
	res, err := Factorize(e, fc)
	if err != nil {
		return RankPoint{}, fmt.Errorf("sweep rank %d: %w", r, err)
	}
	acc, err := res.Accuracy(e)
	if err != nil {
		return RankPoint{}, fmt.Errorf("sweep rank %d accuracy: %w", r, err)
	}
	sparseW, err := Sparsify(res.W, DefaultKeepFraction)
	if err != nil {
		return RankPoint{}, fmt.Errorf("sweep rank %d sparsify: %w", r, err)
	}
	sparseAcc, err := Accuracy(e, sparseW, res.Psi)
	if err != nil {
		return RankPoint{}, fmt.Errorf("sweep rank %d sparse accuracy: %w", r, err)
	}
	return RankPoint{
		Rank:           r,
		Accuracy:       acc,
		SparseAccuracy: sparseAcc,
		Iterations:     res.Iterations,
	}, nil
}

// selectDescentFraction is the share of the sweep's total accuracy descent
// a rank must capture to be selected (the elbow of the Fig. 3b curve).
const selectDescentFraction = 0.9

// SelectRank applies the paper's two-sided criterion to a sweep: keep r as
// small as possible (Occam's razor — explain exceptions with few root
// causes) while the reconstruction error has mostly finished falling and
// before the sparsification gap balloons. Concretely it returns the
// smallest rank capturing selectDescentFraction of the sweep's total
// accuracy descent — the elbow of the Fig. 3b curve, which lands on r=25
// for the CitySee-style data.
func SelectRank(points []RankPoint) (int, error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("%w: empty sweep", ErrBadRank)
	}
	first, last := points[0].Accuracy, points[len(points)-1].Accuracy
	total := first - last
	if total <= 0 {
		// Accuracy never improved: the smallest rank explains the data as
		// well as any.
		return points[0].Rank, nil
	}
	cumulative := 0.0
	prev := first
	for _, p := range points {
		if d := prev - p.Accuracy; d > 0 {
			cumulative += d
		}
		prev = p.Accuracy
		if cumulative >= selectDescentFraction*total {
			return p.Rank, nil
		}
	}
	return points[len(points)-1].Rank, nil
}
