package wsn

import (
	"fmt"
	"math/rand"

	"github.com/wsn-tools/vn2/internal/env"
)

// GridTopology builds a rows×cols grid with the given spacing in meters,
// sink at the grid origin. This is the paper's 9×5 testbed layout shape.
func GridTopology(rows, cols int, spacing float64) ([]env.Position, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("wsn: grid %dx%d invalid", rows, cols)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("wsn: grid spacing %v invalid", spacing)
	}
	out := make([]env.Position, 0, rows*cols+1)
	out = append(out, env.Position{X: 0, Y: 0}) // sink
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, env.Position{
				X: float64(c+1) * spacing,
				Y: float64(r) * spacing,
			})
		}
	}
	return out, nil
}

// RandomTopology scatters count nodes uniformly over a fieldSize×fieldSize
// area with the sink at the center, as an urban CitySee-like deployment.
// The same seed yields the same topology.
func RandomTopology(count int, fieldSize float64, seed int64) ([]env.Position, error) {
	if count < 1 {
		return nil, fmt.Errorf("wsn: topology needs >= 1 node, got %d", count)
	}
	if fieldSize <= 0 {
		return nil, fmt.Errorf("wsn: field size %v invalid", fieldSize)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]env.Position, 0, count+1)
	out = append(out, env.Position{X: fieldSize / 2, Y: fieldSize / 2}) // sink
	for i := 0; i < count; i++ {
		out = append(out, env.Position{
			X: rng.Float64() * fieldSize,
			Y: rng.Float64() * fieldSize,
		})
	}
	return out, nil
}
