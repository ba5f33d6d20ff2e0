package store

import (
	"fmt"
	"time"
)

// SwapRecord is the KindSwap WAL payload: which model generation starts at
// this LSN. File names a file inside the models directory, persisted and
// fsynced BEFORE the record is appended, so a replayed record's file always
// exists. Detector is only recognised: a WAL written by a sink that still
// refroze its detector on a swap names that generation's detector file here,
// and replay refuses such a record (the detector is fixed at boot).
type SwapRecord struct {
	Version  uint64 `json:"version"`
	Parent   uint64 `json:"parent"`
	Origin   string `json:"origin"`
	File     string `json:"file"`
	Detector string `json:"detector,omitempty"`
}

// SwapEvent is one history entry, kept for /model, the snapshot, and the
// ModelSwapped/ModelRolledBack stream events.
type SwapEvent struct {
	Version uint64    `json:"version"`
	Parent  uint64    `json:"parent"`
	Origin  string    `json:"origin"`
	At      time.Time `json:"at"`
}

// ModelFileName names a persisted model generation inside the models dir.
func ModelFileName(version uint64) string {
	return fmt.Sprintf("model-v%06d.json", version)
}
