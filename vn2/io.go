package vn2

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// ErrCorruptModel reports a model file whose fields are mutually
// inconsistent (e.g. a Signatures matrix that does not match the basis
// dims) — the kind of damage hand-editing or truncation produces.
var ErrCorruptModel = errors.New("vn2: corrupt model file")

// modelFileVersion guards the serialized format.
const modelFileVersion = 1

// ModelMeta is the optional lifecycle envelope persisted next to a model:
// which generation of a long-lived deployment's model this is, what it was
// derived from, and when. Files written without meta (every pre-lifecycle
// model) load with a zero ModelMeta; files written with meta load fine in
// older readers, which simply ignore the field.
type ModelMeta struct {
	// ModelVersion is the monotonically increasing generation number a
	// serving deployment assigns on every accepted hot-swap. 0 means the
	// file predates the lifecycle (treated as generation 1 by serve).
	ModelVersion uint64 `json:"model_version,omitempty"`
	// Parent is the generation this model was warm-started from via Update
	// (0 for a cold-trained model).
	Parent uint64 `json:"parent,omitempty"`
	// Origin records how the model was produced: "train", "update", or
	// "rollback".
	Origin string `json:"origin,omitempty"`
	// SavedAt is when the file was written.
	SavedAt time.Time `json:"saved_at,omitempty"`
}

// zero reports whether the meta carries no information (so Save can omit
// the field entirely and stay byte-compatible with pre-lifecycle files).
func (mm ModelMeta) zero() bool {
	return mm.ModelVersion == 0 && mm.Parent == 0 && mm.Origin == "" && mm.SavedAt.IsZero()
}

// modelFile is the on-disk JSON envelope.
type modelFile struct {
	Version int        `json:"version"`
	Meta    *ModelMeta `json:"meta,omitempty"`
	Model   *Model     `json:"model"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	return m.SaveVersioned(w, ModelMeta{})
}

// SaveVersioned writes the model together with its lifecycle meta. A zero
// meta produces exactly the bytes Save always produced.
func (m *Model) SaveVersioned(w io.Writer, meta ModelMeta) error {
	if !m.trained() {
		return ErrNotTrained
	}
	mf := modelFile{Version: modelFileVersion, Model: m}
	if !meta.zero() {
		mf.Meta = &meta
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(mf); err != nil {
		return fmt.Errorf("encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save, discarding any lifecycle meta.
func Load(r io.Reader) (*Model, error) {
	m, _, err := LoadVersioned(r)
	return m, err
}

// LoadVersioned reads a model written by Save or SaveVersioned, returning
// the lifecycle meta alongside it (zero for files written without one).
func LoadVersioned(r io.Reader) (*Model, ModelMeta, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, ModelMeta{}, fmt.Errorf("decode model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, ModelMeta{}, fmt.Errorf("vn2: unsupported model version %d", mf.Version)
	}
	if !mf.Model.trained() {
		return nil, ModelMeta{}, ErrNotTrained
	}
	if mf.Model.Psi.Rows() != mf.Model.Rank {
		return nil, ModelMeta{}, fmt.Errorf("vn2: basis has %d rows, rank says %d", mf.Model.Psi.Rows(), mf.Model.Rank)
	}
	if mf.Model.Psi.Cols() != len(mf.Model.Scale) {
		return nil, ModelMeta{}, fmt.Errorf("vn2: basis has %d columns, scale has %d", mf.Model.Psi.Cols(), len(mf.Model.Scale))
	}
	// The optional fields must agree with the basis dims too; a corrupt or
	// hand-edited file with, say, a short Signatures matrix would otherwise
	// load fine and panic later inside Signature/Explain.
	m := mf.Model
	cols := m.Psi.Cols()
	// Factorize only produces a finite non-negative basis and training
	// floors every scale at 1e-9; normalize divides by Scale, so a zero,
	// negative or non-finite divisor is damage, not a model. Every
	// comparison with NaN is false, so NaN and ±Inf fail these.
	for i := 0; i < m.Psi.Rows(); i++ {
		for _, v := range m.Psi.RawRow(i) {
			if !(v >= 0 && v <= math.MaxFloat64) {
				return nil, ModelMeta{}, fmt.Errorf("%w: basis entry %v in row %d is not finite and non-negative",
					ErrCorruptModel, v, i)
			}
		}
	}
	for k, s := range m.Scale {
		if !(s > 0 && s <= math.MaxFloat64) {
			return nil, ModelMeta{}, fmt.Errorf("%w: scale %v of metric %d is not finite and positive",
				ErrCorruptModel, s, k)
		}
	}
	if m.Signatures != nil {
		if m.Signatures.Rows() != m.Rank || m.Signatures.Cols() != cols {
			return nil, ModelMeta{}, fmt.Errorf("%w: signatures are %dx%d, want %dx%d",
				ErrCorruptModel, m.Signatures.Rows(), m.Signatures.Cols(), m.Rank, cols)
		}
	}
	if m.MetricNames != nil && len(m.MetricNames) != cols {
		return nil, ModelMeta{}, fmt.Errorf("%w: %d metric names for %d metrics",
			ErrCorruptModel, len(m.MetricNames), cols)
	}
	if c := m.Calibration; c != nil {
		ok := len(c.Center) == cols && len(c.Scale) == cols && c.RefMax >= 0 && c.RefMax <= math.MaxFloat64
		for k := 0; ok && k < cols; k++ {
			ok = math.Abs(c.Center[k]) <= math.MaxFloat64 && c.Scale[k] > 0 && c.Scale[k] <= math.MaxFloat64
		}
		if !ok {
			return nil, ModelMeta{}, fmt.Errorf("%w: calibration is not %d finite centers and positive scales",
				ErrCorruptModel, cols)
		}
	}
	for j := range m.Labels {
		if j < 0 || j >= m.Rank {
			return nil, ModelMeta{}, fmt.Errorf("%w: label for cause %d outside rank %d",
				ErrCorruptModel, j, m.Rank)
		}
	}
	var meta ModelMeta
	if mf.Meta != nil {
		meta = *mf.Meta
	}
	m.cacheGram()
	return m, meta, nil
}
