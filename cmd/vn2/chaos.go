package main

// The chaos harness is ONE scenario runner: boot a fleet of WAL-backed
// sinks (chaos_fleet.go), feed it the live workload through a client
// (chaos_client.go), kill -9 a shard mid-run, restart it from disk, and
// compare what the fleet then serves against a fault-free baseline — the
// same loop with one sink, a clean JSON wire and nothing planned. Transport
// and topology are parameters of that loop, not forks of it.

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"github.com/wsn-tools/vn2/internal/chaos"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/reporter"
)

// The workload every chaos run replays and the rank of the model it boots.
const (
	chaosScenario = "testbed-expansive"
	chaosRank     = 6
)

// chaosOptions parametrizes one chaos experiment.
type chaosOptions struct {
	// wire is the record-level fault mix; wire.Seed keys the workload AND
	// every fault decision.
	wire chaos.Config
	// conn is the stream transport's connection-level fault plan. Its Seed
	// and Cut follow wire's Seed and Truncate: the wire that truncates JSON
	// bodies cuts stream frames.
	conn chaos.StreamFaults
	// transport is how the faulty run reaches the fleet: "json" (POST
	// /report), "bin" (delta-encoded frames to POST /report/bin) or "stream"
	// (vn2/reporter over the persistent TCP frame stream, with conn's faults
	// layered on the record mix). The baseline is always JSON, so a bin or
	// stream run also proves cross-encoding equivalence.
	transport string
	// shards is the fleet size. 1 is a single sink; >= 2 puts the
	// consistent-hash router in front and compares its merged /fleet view.
	shards    int
	killAfter int     // kill -9 a shard after this epoch batch (0 = never)
	tolerance float64 // max allowed per-epoch relative L1 deviation when wire.Drop > 0
	dir       string  // work dir (default: a temp dir, removed afterwards)
}

// validate rejects what the harness cannot run.
func (o chaosOptions) validate() error {
	switch {
	case o.transport != "json" && o.transport != "bin" && o.transport != "stream":
		return fmt.Errorf("chaos: -transport must be json, bin or stream, got %q", o.transport)
	case o.shards < 1:
		return fmt.Errorf("chaos: -shards must be >= 1, got %d", o.shards)
	case o.shards > 1 && o.transport == "stream":
		return fmt.Errorf("chaos: -transport stream needs -shards 1 (the router fronts the HTTP edge only)")
	case o.shards > 1 && o.wire.Drop > 0:
		return fmt.Errorf("chaos: the bit-exact fleet claim needs a lossless mix; -drop must be 0 with -shards >= 2")
	}
	return nil
}

// chaosView is one run's diagnoses in the form its topology serves them.
type chaosView struct {
	// Epochs is a single sink's MonitorState.Epochs: every diagnosed state's
	// contribution, per epoch and node. Nil for a cluster, which serves only
	// the merged form.
	Epochs []online.EpochState
	// Causes is the per-epoch cause distribution: the router's own /fleet
	// merge for a cluster, cluster.MergeEpochs of Epochs for one sink.
	Causes []online.EpochCauses
}

// chaosResult is what the harness measured; the e2e test asserts on it and
// the CLI prints it.
type chaosResult struct {
	// Baseline is the fault-free single-sink run in the form the faulty
	// topology serves; Recovered is what that topology served after the
	// faults, the kill and the restart.
	Baseline, Recovered chaosView
	Transport           chaos.Stats
	// MaxDeviation is the worst per-epoch relative L1 distance between the
	// fault-free and the recovered distributions (0 when bit-identical).
	MaxDeviation float64
	// Exact reports Baseline and Recovered bit-identical.
	Exact bool
	// Digest fingerprints what the recovered fleet served; identical seeds
	// must reproduce identical digests.
	Digest string
	// Reporter carries the stream client's counters (nil on the HTTP
	// transports): spill-queue bounds, breaker trips, NACKs, redials.
	Reporter *reporter.Stats
	// KilledShard is which shard took the kill -9. Resent counts the
	// deliveries the router refused during its outage and the gateway resent
	// once it was back (0 for one sink, which restarts before the next
	// delivery); RouterRestarts how often the router was thrown away.
	KilledShard, Resent, RouterRestarts int
}

func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var o chaosOptions
	fs.Int64Var(&o.wire.Seed, "seed", 1, "seed for the workload AND every fault decision")
	fs.Float64Var(&o.wire.Drop, "drop", 0, "per-report drop probability (losses: recovery compared under -tolerance)")
	fs.Float64Var(&o.wire.Duplicate, "dup", 0.1, "per-report duplication probability (lossless)")
	fs.Float64Var(&o.wire.Delay, "delay", 0.2, "per-report delay probability (lossless, reorders across nodes)")
	fs.Float64Var(&o.wire.Truncate, "truncate", 0.1, "per-delivery wire-truncation probability (lossless, client retransmits)")
	fs.BoolVar(&o.wire.Shuffle, "shuffle", true, "shuffle each delivery's records")
	fs.StringVar(&o.transport, "transport", "json", "how the chaos run is delivered: json (POST /report) | bin (delta-encoded frames to POST /report/bin) | stream (the production vn2/reporter over the persistent TCP frame stream, adding mid-frame cuts, corruption, partition and a slowloris probe); the baseline stays on JSON, so exactness also proves cross-encoding equivalence")
	fs.IntVar(&o.shards, "shards", 1, "fleet size: 1 is a single sink; >= 2 puts the consistent-hash router in front of that many shards, kills one mid-run, replaces the router twice, and compares the merged /fleet view bit-exactly against a single fault-free sink (json and bin only)")
	fs.Float64Var(&o.conn.Corrupt, "corrupt", 0.1, "per-step frame-corruption probability (-transport stream only; caught by the frame CRC and NACKed)")
	fs.IntVar(&o.conn.PartitionAt, "partition-epoch", 0, "open a hard network partition at this epoch batch (-transport stream only; 0 = never): the reporter spills into its bounded queue and its circuit breaker trips")
	fs.IntVar(&o.conn.PartitionLen, "partition-len", 6, "how many epoch batches the partition lasts (-transport stream only; the breaker trips on the fifth failed flush)")
	fs.IntVar(&o.killAfter, "kill-epoch", tracegen.TestbedEpochs/2, "kill -9 a sink after this epoch batch and restart it from WAL+snapshot (0 = never)")
	fs.Float64Var(&o.tolerance, "tolerance", 0.5, "allowed per-epoch relative L1 deviation when -drop > 0 (a single dropped hot report can dominate a sparse epoch)")
	fs.StringVar(&o.dir, "dir", "", "work directory (default: temp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runChaos(o, func(format string, a ...any) { fmt.Fprintf(os.Stderr, format, a...) })
	if err != nil {
		return err
	}
	fmt.Printf("transport: %+v\n", res.Transport)
	if res.Reporter != nil {
		fmt.Printf("reporter: %+v\n", *res.Reporter)
	}
	if o.shards > 1 {
		fmt.Printf("shards: %d (killed %d), router restarts: %d, deliveries resent after the outage: %d\n",
			o.shards, res.KilledShard, res.RouterRestarts, res.Resent)
	}
	fmt.Printf("epochs: baseline %d, recovered %d\n", len(res.Baseline.Causes), len(res.Recovered.Causes))
	fmt.Printf("max per-epoch deviation: %.6f (exact: %v)\n", res.MaxDeviation, res.Exact)
	fmt.Printf("digest %s/%d %s\n", o.transport, o.shards, res.Digest)
	switch {
	case o.wire.Drop == 0 && !res.Exact:
		return fmt.Errorf("chaos: lossless fault mix but what the recovered fleet serves is not bit-identical to the baseline")
	case o.wire.Drop > 0 && res.MaxDeviation > o.tolerance:
		return fmt.Errorf("chaos: deviation %.4f exceeds tolerance %.4f", res.MaxDeviation, o.tolerance)
	}
	fmt.Println("chaos: PASS")
	return nil
}

// runChaos trains a model on a calibration trace, then streams a second
// trace through drive twice — once into one sink over a clean JSON wire
// with nothing planned, once through the chaos transport into the fleet the
// options describe, with a mid-run kill -9 — and compares what the two
// serve. Everything is keyed by o.wire.Seed; two invocations with the same
// options produce bit-identical results.
func runChaos(o chaosOptions, logf func(string, ...any)) (*chaosResult, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.dir == "" {
		dir, err := os.MkdirTemp("", "vn2-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		o.dir = dir
	}

	// Fixtures, built with the repo's own subcommands: calibration trace
	// (also the training set) and the model every sink of both runs boots.
	if err := run([]string{"tracegen", "-scenario", chaosScenario, "-seed", fmt.Sprint(o.wire.Seed), "-out", o.calibPath()}); err != nil {
		return nil, fmt.Errorf("tracegen: %w", err)
	}
	if err := run([]string{"train", "-in", o.calibPath(), "-out", o.modelPath(), "-rank", fmt.Sprint(chaosRank), "-all-states"}); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	// The live workload: a second simulated deployment window, rebased to
	// start right after the calibration epochs so each report continues its
	// node's counter stream.
	batches, err := liveBatches(o, tracegen.TestbedEpochs)
	if err != nil {
		return nil, err
	}
	logf("chaos: %d live epoch batches, %s transport, %d shard(s)\n", len(batches), o.transport, o.shards)

	// The ground truth: ONE sink, every node, clean JSON wire, no kill.
	base := o
	base.transport, base.shards, base.killAfter = "json", 1, 0
	baseline, err := drive(base, "baseline", batches, nil, logf)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}

	tr, err := chaos.New(o.wire)
	if err != nil {
		return nil, err
	}
	res, err := drive(o, "chaos", batches, tr, logf)
	if err != nil {
		return nil, fmt.Errorf("chaos run: %w", err)
	}
	res.Transport = tr.Stats()
	res.Baseline = baseline.Recovered
	// The oracle compares, and the digest fingerprints, what the topology
	// serves: per-node contributions for one sink; for a cluster the router's
	// own merge, held against cluster.MergeEpochs of the baseline.
	served := any(res.Recovered.Epochs)
	if o.shards > 1 {
		res.Baseline.Epochs = nil
		served = res.Recovered.Causes
	}
	res.Exact = reflect.DeepEqual(res.Baseline, res.Recovered)
	res.MaxDeviation = maxCausesDeviation(res.Baseline.Causes, res.Recovered.Causes)
	b, err := json.Marshal(served)
	if err != nil {
		return nil, err
	}
	res.Digest = fmt.Sprintf("%x", sha256.Sum256(b))
	return res, nil
}

func (o chaosOptions) calibPath() string { return filepath.Join(o.dir, "calib.csv") }
func (o chaosOptions) modelPath() string { return filepath.Join(o.dir, "model.json") }

// chaosPlan is the step-indexed script of one run, computed up front from
// the options; steps count from 1, so a zero entry never fires.
type chaosPlan struct {
	snapshot   int    // every live shard persists a snapshot
	probe      int    // the stream client runs its slowloris probe
	kill       int    // kill -9 the victim shard
	restart    int    // boot it again from WAL + snapshot
	swapRouter [2]int // discard the router and boot a fresh one
}

func planFor(o chaosOptions, steps int) chaosPlan {
	if o.killAfter <= 0 || o.killAfter > steps {
		return chaosPlan{}
	}
	p := chaosPlan{
		// Cut a snapshot mid-run so recovery exercises snapshot restore +
		// WAL truncation + replay of the suffix, not just a full replay.
		snapshot: o.killAfter / 2,
		probe:    o.killAfter / 4,
		kill:     o.killAfter,
		// One sink comes straight back: its clients have nowhere else to go.
		restart: o.killAfter,
	}
	if o.shards > 1 {
		// A shard of a fleet stays dark for a few batches (the router
		// refuses what spans it), and the router itself is thrown away once
		// during the outage and once after recovery.
		p.restart = min(o.killAfter+5, steps)
		p.swapRouter = [2]int{o.killAfter + 2, p.restart + 2}
	}
	return p
}

// drive is the experiment's one loop. It boots the fleet o describes under
// o.dir/name and the o.transport client in front of it, walks the batches —
// through tr's fault mix, or as they are when tr is nil — and fires the
// plan: each step delivers, kills, settles whatever is still alive,
// restarts, swaps the router, snapshots, in that order. The result carries
// what the fleet serves at the end plus the client's and fleet's counters.
func drive(o chaosOptions, name string, batches [][]trace.Record, tr *chaos.Transport, logf func(string, ...any)) (*chaosResult, error) {
	p := planFor(o, len(batches))
	f := &fleet{o: o}
	defer f.close()
	err := f.start(filepath.Join(o.dir, name))
	if err != nil {
		return nil, err
	}
	var c client = newGateway(f, o.transport == "bin")
	if o.transport == "stream" {
		sc, err := newStreamClient(o, f, p.probe, logf)
		if err != nil {
			return nil, err
		}
		defer sc.rep.Close()
		c = sc
	}

	res := &chaosResult{KilledShard: f.victim(batches)}
	for i, batch := range batches {
		step := i + 1
		ds := []chaos.Delivery{{Records: batch}}
		if tr != nil {
			ds = tr.Step(batch)
		}
		if err := c.send(step, ds); err != nil {
			return nil, fmt.Errorf("batch %d: %w", step, err)
		}
		if step == p.kill {
			// kill -9, BEFORE the step settles: ACKed reports are sitting in
			// the queue, unflushed WAL buffers die with the process, no
			// goodbye snapshot. Everything the clients were promised must
			// come back from disk.
			queued, err := f.kill(res.KilledShard)
			if err != nil {
				return nil, err
			}
			logf("chaos: killed shard %d after batch %d (queue held %d reports)\n", res.KilledShard, step, queued)
		}
		f.settle()
		if step == p.restart {
			if err := f.restart(res.KilledShard); err != nil {
				return nil, fmt.Errorf("restart shard %d: %w", res.KilledShard, err)
			}
			if res.Resent, err = c.restarted(); err != nil {
				return nil, fmt.Errorf("resend after restart: %w", err)
			}
			logf("chaos: restarted shard %d from disk after batch %d, %d pending deliveries resent\n", res.KilledShard, step, res.Resent)
		}
		if step == p.swapRouter[0] || step == p.swapRouter[1] {
			if err := f.bootRouter(); err != nil {
				return nil, fmt.Errorf("replace router: %w", err)
			}
			logf("chaos: replaced the router after batch %d\n", step)
		}
		if step == p.snapshot {
			if err := f.snapshot(); err != nil {
				return nil, fmt.Errorf("mid-run snapshot: %w", err)
			}
		}
	}
	var stragglers []chaos.Delivery
	if tr != nil {
		stragglers = tr.Flush()
	}
	if res.Reporter, err = c.finish(stragglers); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	f.settle()
	if res.Recovered, err = f.view(); err != nil {
		return nil, err
	}
	res.RouterRestarts = f.routerRestarts
	return res, f.close()
}

// liveBatches generates the live deployment window (a fresh simulation of
// the same testbed under a different seed) and groups it into per-epoch
// report batches, node-ascending, epochs rebased past the calibration run.
func liveBatches(o chaosOptions, rebase int) ([][]trace.Record, error) {
	live, err := tracegen.Testbed(tracegen.TestbedOptions{Seed: o.wire.Seed + 1, Scenario: tracegen.ScenarioExpansive})
	if err != nil {
		return nil, fmt.Errorf("generate live trace: %w", err)
	}
	byEpoch := make(map[int][]trace.Record)
	for _, id := range live.Dataset.Nodes() {
		for _, rec := range live.Dataset.Records(id) {
			rec.Epoch += rebase
			rec.Vector = append([]float64(nil), rec.Vector...)
			byEpoch[rec.Epoch] = append(byEpoch[rec.Epoch], rec)
		}
	}
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	batches := make([][]trace.Record, 0, len(epochs))
	for _, e := range epochs {
		batch := byEpoch[e]
		sort.Slice(batch, func(i, j int) bool { return batch[i].Node < batch[j].Node })
		batches = append(batches, batch)
	}
	return batches, nil
}

// maxCausesDeviation is the comparison metric the tolerance applies to: for
// each epoch present in either run, the L1 distance between the per-cause
// distributions relative to the larger distribution's mass. 0 means
// identical; 1 means an epoch's entire diagnosis mass is missing or new.
func maxCausesDeviation(a, b []online.EpochCauses) float64 {
	byEpoch := func(ecs []online.EpochCauses) map[int][]float64 {
		m := make(map[int][]float64, len(ecs))
		for _, ec := range ecs {
			m[ec.Epoch] = ec.Distribution
		}
		return m
	}
	am, bm := byEpoch(a), byEpoch(b)
	var worst float64
	for _, m := range []map[int][]float64{am, bm} {
		for e := range m {
			worst = max(worst, l1RelDeviation(am[e], bm[e]))
		}
	}
	return worst
}

// l1RelDeviation compares two distributions over the same causes; nil is an
// epoch the other run never diagnosed, i.e. all zeros.
func l1RelDeviation(a, b []float64) float64 {
	if a == nil {
		a = make([]float64, len(b))
	}
	if b == nil {
		b = make([]float64, len(a))
	}
	var diff, massA, massB float64
	for c := range a {
		diff += math.Abs(a[c] - b[c])
		massA += a[c]
		massB += b[c]
	}
	if mass := max(massA, massB); mass > 0 {
		return diff / mass
	}
	return 0
}
