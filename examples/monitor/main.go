// Online monitor: run the simulator and VN2 side by side — train a model
// on a warm-up window, take the exception detector the model carries, and stream
// each new epoch's reports through the online monitor. A report first
// passes the frozen detector (is the derived state abnormal at all?) and
// only then is batch-diagnosed against Ψ on the per-epoch drain (which
// root causes, how strongly) — the "new network state coming up" loop of
// the paper's abstract, on the same vn2/online API the `vn2 serve` HTTP
// service runs.
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/wsn-tools/vn2/internal/env"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/wsn"
	"github.com/wsn-tools/vn2/vn2"
	"github.com/wsn-tools/vn2/vn2/online"
)

const (
	warmupEpochs  = 36
	monitorEpochs = 16
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo, err := wsn.GridTopology(6, 6, 11)
	if err != nil {
		return err
	}
	n, err := wsn.New(wsn.Config{Seed: 5, Topology: topo})
	if err != nil {
		return err
	}

	// Warm-up: collect a training window.
	fmt.Printf("warm-up: %d epochs...\n", warmupEpochs)
	ds := trace.NewDataset()
	if err := collect(n, ds, warmupEpochs); err != nil {
		return err
	}
	trainStates := ds.States()
	model, report, err := vn2.Train(trainStates, vn2.TrainConfig{
		Rank:              8,
		CompressAllStates: true, // small window, as in the testbed study
		Seed:              5,
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	// The model carries the detector's calibration over the same window:
	// its RefMax is the batch max(ε), so the online rule ε/RefMax ≥
	// threshold is exactly the batch detector's cutoff applied per incoming
	// state. A higher-than-default threshold keeps the live loop quiet until
	// something breaks.
	det := model.Calibration.WithThreshold(0.05)
	mon, err := online.NewMonitor(online.Config{Model: model, Detector: det})
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	// Prime the diff slots with each node's last warm-up report so the
	// first live report already produces a state vector.
	for _, rec := range ds.LastRecords() {
		if err := mon.Warm(rec); err != nil {
			return err
		}
	}
	fmt.Printf("model ready: Psi(%dx%d), %d training states, alert threshold %.0f%% of max eps\n\n",
		model.Rank, model.Metrics(), report.ExceptionStates, det.Threshold*100)

	// Live loop: stream reports into the monitor, drain once per epoch, and
	// print the diagnosed alerts. Faults are injected mid-stream to watch
	// the alerts fire.
	for epoch := 0; epoch < monitorEpochs; epoch++ {
		switch epoch {
		case 5:
			fmt.Println(">>> injecting routing loop between nodes 7, 12, 13")
			if err := n.InjectLoop(7, 12, 13); err != nil {
				return err
			}
		case 9:
			fmt.Println(">>> clearing loop; injecting interference near the grid center")
			n.ClearForcedParents()
			n.InjectInterference(env.Position{X: 30, Y: 30}, 90*time.Minute)
		}
		er, err := n.Step()
		if err != nil {
			return err
		}
		for _, rep := range er.Reports {
			vec, err := rep.Vector()
			if err != nil {
				return err
			}
			rec := trace.Record{Node: rep.C1.Node, Epoch: er.Epoch, Vector: vec}
			if _, err := mon.Ingest(rec); err != nil {
				return err
			}
		}
		alerts, err := mon.Drain()
		if err != nil {
			return err
		}
		for _, a := range alerts {
			if len(a.Diagnosis.Ranked) == 0 {
				fmt.Printf("  ALERT node %-2d abnormal but unattributed (residual %.2f)\n",
					a.State.Node, a.Diagnosis.Residual)
				continue
			}
			rc := a.Diagnosis.Ranked[0]
			exp, err := model.Explain(rc.Cause, 3)
			if err != nil {
				return err
			}
			fmt.Printf("  ALERT node %-2d psi%d(%.2f) %s\n",
				a.State.Node, rc.Cause+1, rc.Strength, exp.Category)
		}
		fmt.Printf("epoch %2d  PRR %.3f  alerts %d\n", er.Epoch, er.PRR, len(alerts))
	}
	// Summarize from the monitor's exported counters — the same DriftStats
	// snapshot `vn2 serve` publishes at /metrics (model_version,
	// drift_residual_p50/p90/p99, drift_unattributed) — rather than
	// re-deriving residual statistics from the alert stream by hand.
	st := mon.Stats()
	drift := mon.DriftStats()
	fmt.Printf("\nmonitor: %d reports, %d flagged, %d diagnosed, %d gap states (max gap %d)\n",
		st.Reports, st.Flagged, st.Diagnosed, st.GapReports, st.MaxGap)
	fmt.Printf("model v%d: residual p50 %.2f p90 %.2f p99 %.2f over %d-state window, %d unattributed\n",
		drift.ModelVersion, drift.P50, drift.P90, drift.P99, drift.Window, drift.Unattributed)
	return nil
}

func collect(n *wsn.Network, ds *trace.Dataset, epochs int) error {
	for i := 0; i < epochs; i++ {
		er, err := n.Step()
		if err != nil {
			return err
		}
		for _, rep := range er.Reports {
			if err := ds.AddReport(er.Epoch, rep); err != nil {
				return err
			}
		}
	}
	return nil
}
