package nnls_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/wsn-tools/vn2/internal/mat"
	"github.com/wsn-tools/vn2/internal/nnls"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
)

// The multiplicative solver VN2 diagnosed with until the active-set solver
// replaced it, kept verbatim (uniform start, 500 sweeps, 1e-9 relative
// stopping test on the residual) as the oracle the exact solver is held
// against: never a larger residual, the same dominant cause.

const epsDiv = 1e-12

func oracleResidual(diff, s, w []float64, psi *mat.Dense) float64 {
	copy(diff, s)
	for i, wv := range w {
		row := psi.RawRow(i)
		for j, pv := range row {
			diff[j] -= wv * pv
		}
	}
	var sum float64
	for _, d := range diff {
		sum += d * d
	}
	return math.Sqrt(sum)
}

// oracleMU solves one state with maxIter sweeps and the given tolerance
// (the production defaults were 500 and 1e-9). g must be nnls.Gram(psi).
func oracleMU(s []float64, psi, g *mat.Dense, maxIter int, tolerance float64) ([]float64, float64) {
	r, m := psi.Dims()
	w, b, diff := make([]float64, r), make([]float64, r), make([]float64, m)
	for i := range b {
		row := psi.RawRow(i)
		var sum float64
		for j, pv := range row {
			sum += pv * s[j]
		}
		b[i] = sum
	}
	for i := range w {
		w[i] = 1.0 / float64(r) // uniform positive start
	}
	prev := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		for i := 0; i < r; i++ {
			num := b[i]
			if num < 0 {
				// A negative correlation with the basis cannot be expressed
				// with w ≥ 0; the multiplicative rule drives w_i to zero.
				num = 0
			}
			var den float64
			gRow := g.RawRow(i)
			for k := 0; k < r; k++ {
				den += gRow[k] * w[k]
			}
			w[i] *= num / (den + epsDiv)
		}
		obj := oracleResidual(diff, s, w, psi)
		if !math.IsInf(prev, 1) && prev-obj <= tolerance*math.Max(prev, 1) {
			break
		}
		prev = obj
	}
	return w, oracleResidual(diff, s, w, psi)
}

func argmax(w []float64) int {
	best := 0
	for i, v := range w {
		if v > w[best] {
			best = i
		}
	}
	return best
}

// kktEps is the KKT test's tolerance relative to ‖b‖∞: ten times the dual
// tolerance the solver stops at.
const kktEps = 1e-9

// checkKKT verifies the optimality certificate of w for (G, b = Ψs):
// w ≥ 0, |Gw − b| ≤ ε on the support, Gw − b ≥ −ε off it.
func checkKKT(w, s []float64, psi, g *mat.Dense) error {
	r := len(w)
	b := make([]float64, r)
	var bMax float64
	for i := range b {
		for j, pv := range psi.RawRow(i) {
			b[i] += pv * s[j]
		}
		bMax = math.Max(bMax, math.Abs(b[i]))
	}
	eps := kktEps * bMax
	for j := 0; j < r; j++ {
		if !(w[j] >= 0) {
			return fmt.Errorf("w[%d] = %v", j, w[j])
		}
		grad := -b[j]
		for k, gv := range g.RawRow(j) {
			grad += gv * w[k]
		}
		if w[j] > 0 && math.Abs(grad) > eps {
			return fmt.Errorf("support cause %d: (Gw−b) = %v, ε = %v", j, grad, eps)
		}
		if w[j] == 0 && grad < -eps {
			return fmt.Errorf("zero cause %d: (Gw−b) = %v, ε = %v", j, grad, eps)
		}
	}
	return nil
}

// traceCase is one model with the normalized flagged states of one live
// trace — what a sink trained on seed's calibration district would have
// diagnosed while fed that trace.
type traceCase struct {
	name   string
	psi, g *mat.Dense
	states [][]float64
}

var traceCases = sync.OnceValue(func() []traceCase {
	var out []traceCase
	add := func(name string, model *vn2.Model, det *trace.Detector, live *tracegen.Result) {
		tc := traceCase{name: name, psi: model.Psi, g: nnls.Gram(model.Psi)}
		for _, st := range live.Dataset.States() {
			if flagged, _, err := det.Exceptional(st.Delta); err != nil {
				panic(err)
			} else if !flagged {
				continue
			}
			s := make([]float64, len(model.Scale))
			for k, v := range st.Delta {
				s[k] = math.Abs(v) / model.Scale[k]
			}
			tc.states = append(tc.states, s)
		}
		out = append(out, tc)
	}
	must := func(res *tracegen.Result, err error) *tracegen.Result {
		if err != nil {
			panic(err)
		}
		return res
	}
	for seed := int64(1); seed <= 6; seed++ {
		cal := must(tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: seed, Days: 2, Nodes: 72}))
		states := cal.Dataset.States()
		det, err := trace.NewDetector(states, 0)
		if err != nil {
			panic(err)
		}
		ranks := []int{12}
		if seed == 1 {
			ranks = append(ranks, 25)
		}
		healthy := must(tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: seed + 1, Days: 2, Nodes: 72}))
		storm, _, err := tracegen.CitySeeSeptember(tracegen.CitySeeOptions{Seed: seed + 1, Days: 2, Nodes: 72})
		must(storm, err)
		for _, rank := range ranks {
			model, _, err := vn2.Train(states, vn2.TrainConfig{Rank: rank, Seed: seed, Workers: -1})
			if err != nil {
				panic(err)
			}
			add(fmt.Sprintf("healthy/seed%d/r%d", seed, rank), model, det, healthy)
			if rank == 12 {
				add(fmt.Sprintf("storm/seed%d/r%d", seed, rank), model, det, storm)
			}
		}
	}
	return out
})

// TestTraceStatesKKTAndOracle: on every flagged state of the twelve r = 12
// traces (healthy + storm × seeds 1–6) and one trace at r = 25 the solution
// carries its KKT certificate, its residual is never above the
// multiplicative oracle's, and it names the same dominant cause on ≥ 99 %.
func TestTraceStatesKKTAndOracle(t *testing.T) {
	var total, sameDominant, support, oracleSupport int
	for _, tc := range traceCases() {
		if len(tc.states) == 0 {
			t.Errorf("%s: no flagged states", tc.name)
		}
		r := tc.psi.Rows()
		for i, s := range tc.states {
			res, err := nnls.Solve(s, tc.psi, tc.g)
			if err != nil {
				t.Fatalf("%s state %d: %v", tc.name, i, err)
			}
			if res.Iterations >= nnls.SolvesPerCause*r {
				t.Errorf("%s state %d: stopped by the bound (%d solves), not at the KKT point", tc.name, i, res.Iterations)
			}
			if err := checkKKT(res.W, s, tc.psi, tc.g); err != nil {
				t.Errorf("%s state %d: KKT: %v", tc.name, i, err)
			}
			ow, ores := oracleMU(s, tc.psi, tc.g, 500, 1e-9)
			if res.Residual > ores*(1+1e-12) {
				t.Errorf("%s state %d: residual %v above the oracle's %v", tc.name, i, res.Residual, ores)
			}
			total++
			if argmax(res.W) == argmax(ow) {
				sameDominant++
			}
			for j := range res.W {
				if res.W[j] >= 1e-6 {
					support++
				}
				if ow[j] >= 1e-6 {
					oracleSupport++
				}
			}
		}
	}
	t.Logf("%d states: dominant cause equal on %d, mean support %.2f (oracle %.2f)",
		total, sameDominant, float64(support)/float64(total), float64(oracleSupport)/float64(total))
	if float64(sameDominant) < 0.99*float64(total) {
		t.Errorf("dominant cause equal on %d of %d states, want ≥ 99%%", sameDominant, total)
	}
}

// TestSolversAgree: run to convergence, the multiplicative oracle arrives
// at the active-set solver's weights.
func TestSolversAgree(t *testing.T) {
	psi, err := mat.RandomPositive(5, 25, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 0, 3, 0.25}
	s := make([]float64, 25)
	for i, wv := range want {
		for j, pv := range psi.RawRow(i) {
			s[j] += wv * pv
		}
	}
	g := nnls.Gram(psi)
	exact, err := nnls.Solve(s, psi, g)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := oracleMU(s, psi, g, 20000, 1e-15)
	for i := range want {
		if math.Abs(exact.W[i]-want[i]) > 1e-12 {
			t.Errorf("exact W[%d] = %v, want %v", i, exact.W[i], want[i])
		}
		if math.Abs(mu[i]-exact.W[i]) > 0.05*(1+want[i]) {
			t.Errorf("solvers disagree at %d: MU=%v exact=%v", i, mu[i], exact.W[i])
		}
	}
}

var sinkResidual float64

// BenchmarkSolve times one state's solve, the exact solver beside the
// multiplicative oracle, over the flagged states of a storm trace at r = 12
// and a healthy one at r = 25.
func BenchmarkSolve(b *testing.B) {
	for _, tc := range traceCases() {
		if tc.name != "storm/seed1/r12" && tc.name != "healthy/seed1/r25" {
			continue
		}
		b.Run("exact/"+tc.name, func(b *testing.B) {
			n := len(tc.states)
			weights, residuals := mat.MustNew(n, tc.psi.Rows()), make([]float64, n)
			states := mat.MustNew(n, tc.psi.Cols())
			for i, s := range tc.states {
				states.SetRow(i, s)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nnls.SolveBatchInto(weights, residuals, states, tc.psi, tc.g, 0); err != nil {
					b.Fatal(err)
				}
			}
			sinkResidual = residuals[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/state")
		})
		b.Run("oracle/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range tc.states {
					_, sinkResidual = oracleMU(s, tc.psi, tc.g, 500, 1e-9)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tc.states)), "ns/state")
		})
	}
}
