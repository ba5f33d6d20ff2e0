package main

// Fixtures and fleet construction: the calibration trace, the trained model,
// the live trace, and its replication into a district-scaled record sequence
// cut into per-connection batches. Everything is a pure function of the seed.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
)

const (
	// districtNodes is one simulated district. Trace generation costs by the
	// report, so a quarter of the paper's 286 nodes buys four times the
	// epochs for the same set-up time, and epochs are what the diagnosis-lag
	// percentiles are short of.
	districtNodes = 72
	calibDays     = 2    // ≈20k calibration states
	epochsPerDay  = 144  // tracegen's 10-minute reporting interval
	districtShift = 1000 // node id offset between replicated districts
	// staggerEpochs is how far apart in their common trace successive
	// healthy districts run: six hours.
	staggerEpochs = epochsPerDay / 4
	batchSize     = 64 // reports per frame / POST (reporter.DefaultMaxBatch)
	// modelRank fixes the compression factor: the rank sweep costs ~2 s of
	// every set-up and examples/citysee trains the same fleet at 12.
	modelRank = 12
)

// fixtures is what one set-up generates before any process starts.
type fixtures struct {
	model     *vn2.Model // read back from model.json, exactly what the sink loads
	det       *trace.Detector
	warm      []trace.Record // each calibration node's last report (the sink's Warm input)
	modelPath string
	calibPath string
	live      []trace.Record // one district, (epoch, node)-ascending, rebased

	tracegenS       float64
	tracegenReports int
	trainS          float64
}

// makeFixtures generates the calibration trace (seed), trains the model on
// it, and generates the live trace (seed+1): liveDays of a healthy CitySee
// district, or the failure window of the September scenario when storm is
// set.
func makeFixtures(dir string, seed int64, storm bool, liveDays int) (*fixtures, error) {
	fx := &fixtures{
		modelPath: filepath.Join(dir, "model.json"),
		calibPath: filepath.Join(dir, "calib.csv"),
	}
	t0 := time.Now()
	cal, err := tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: seed, Days: calibDays, Nodes: districtNodes})
	if err != nil {
		return nil, fmt.Errorf("calibration trace: %w", err)
	}
	// A September trace spends a seventh of its days degraded, except that
	// the window of a 2-day trace is its whole second day: the cheapest
	// storm there is, and set-up replicates it into as many districts as the
	// run needs reports.
	var live *tracegen.Result
	from := 0
	if storm {
		var win *tracegen.SeptemberWindow
		live, win, err = tracegen.CitySeeSeptember(tracegen.CitySeeOptions{Seed: seed + 1, Days: 2, Nodes: districtNodes})
		if err == nil {
			from = win.StartDay * epochsPerDay
		}
	} else {
		live, err = tracegen.CitySeeTraining(tracegen.CitySeeOptions{Seed: seed + 1, Days: liveDays, Nodes: districtNodes})
	}
	if err != nil {
		return nil, fmt.Errorf("live trace: %w", err)
	}
	fx.tracegenS = time.Since(t0).Seconds()
	fx.tracegenReports = cal.Dataset.Len() + live.Dataset.Len()

	t0 = time.Now()
	states := cal.Dataset.States()
	model, _, err := vn2.Train(states, vn2.TrainConfig{Rank: modelRank, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	fx.trainS = time.Since(t0).Seconds()

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(fx.modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if fx.model, err = vn2.Load(&buf); err != nil {
		return nil, err
	}
	buf.Reset()
	if err := cal.Dataset.WriteCSV(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(fx.calibPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if fx.det, err = trace.NewDetector(states, 0); err != nil {
		return nil, err
	}
	for _, id := range cal.Dataset.Nodes() {
		recs := cal.Dataset.Records(id)
		fx.warm = append(fx.warm, recs[len(recs)-1])
	}
	fx.live = rebase(live.Dataset, from, cal.Epochs)
	return fx, nil
}

// rebase flattens a dataset into (epoch, node) order, keeps the epochs after
// `from`, and shifts them past the calibration window. Un-rebased, the sink
// would ACK every batch and then reject the records whose epoch its warmed
// diff slots have already seen.
func rebase(ds *trace.Dataset, from, calibEpochs int) []trace.Record {
	var out []trace.Record
	for _, id := range ds.Nodes() {
		for _, rec := range ds.Records(id) {
			if rec.Epoch > from {
				rec.Epoch += calibEpochs
				out = append(out, rec)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// replicate scales one district's trace to a fleet: every epoch is emitted
// once per district with node ids shifted by districtShift (vectors shared
// read-only), until want records exist. District d runs d·stagger epochs
// ahead of the first: what one district's nodes go through in one epoch,
// every district would otherwise go through in that same epoch, and the
// fleet's flagged states would pile into a few epochs.
func replicate(base []trace.Record, districts, stagger, want int) ([]trace.Record, error) {
	if len(base) == 0 {
		return nil, errors.New("live trace is empty")
	}
	first, last := base[0].Epoch, base[len(base)-1].Epoch
	start := make([]int, last-first+2) // epoch − first → index of its first record
	for i, e := 0, first; e <= last+1; e++ {
		for i < len(base) && base[i].Epoch < e {
			i++
		}
		start[e-first] = i
	}
	out := make([]trace.Record, 0, want)
	for g := first; g+(districts-1)*stagger <= last; g++ {
		for d := 0; d < districts; d++ {
			e := g + d*stagger - first
			for _, rec := range base[start[e]:start[e+1]] {
				if len(out) == want {
					return out, nil
				}
				rec.Node += packet.NodeID(districtShift * d)
				rec.Epoch = g
				out = append(out, rec)
			}
		}
	}
	if len(out) == want {
		return out, nil
	}
	return nil, fmt.Errorf("live trace too short: %d reports over epochs %d–%d × %d districts %d epochs apart = %d, want %d",
		len(base), first, last, districts, stagger, len(out), want)
}

// flagThreshold returns the detector cutoff ε/RefMax at which the given
// share of the states the fleet's reports derive is flagged. Districts
// carry the same vectors, so the first one's scores stand for all.
func flagThreshold(fx *fixtures, recs []trace.Record, share float64) (float64, error) {
	det := *fx.det
	det.Threshold = math.MaxFloat64 // score only: nothing is flagged or queued
	mon, err := online.NewMonitor(online.Config{Model: fx.model, Detector: &det})
	if err != nil {
		return 0, err
	}
	var scores []float64
	for _, rec := range recs {
		if rec.Node >= districtShift {
			continue
		}
		obs, err := mon.Ingest(rec)
		if err != nil {
			return 0, err
		}
		if !obs.First && !obs.Duplicate {
			scores = append(scores, obs.Score)
		}
	}
	sort.Float64s(scores)
	k := int(share * float64(len(scores)))
	if k == 0 || !(scores[len(scores)-k] > 0) {
		return 0, fmt.Errorf("no cutoff flags %.3f of %d states", share, len(scores))
	}
	return scores[len(scores)-k], nil
}

// partition splits the fleet across ingest connections by node, so per-node
// order and each connection's delta baselines hold, and cuts each share
// into batches.
func partition(recs []trace.Record, conns int) [][][]trace.Record {
	shares := make([][]trace.Record, conns)
	for _, rec := range recs {
		c := int(rec.Node) % conns
		shares[c] = append(shares[c], rec)
	}
	out := make([][][]trace.Record, conns)
	for c, share := range shares {
		for len(share) > 0 {
			n := min(batchSize, len(share))
			out[c] = append(out[c], share[:n:n])
			share = share[n:]
		}
	}
	return out
}
