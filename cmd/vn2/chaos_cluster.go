package main

// Cluster chaos: the sharded counterpart of runChaos. A fleet of k
// WAL-backed serve shards sits behind the cluster router; the same
// lossless fault mix runs through the router, one shard is kill -9'd
// mid-run and restarted a few batches later, and the router itself is
// thrown away and rebuilt twice — once during the outage, once after
// recovery. The router answers 503 for every batch that spans the dark
// shard; the harness plays the gateway the router's contract assumes,
// keeping un-ACKed deliveries in an in-order pending list and resending
// them whole. The merged /fleet distributions must come out BIT-IDENTICAL
// to a single fault-free, kill-free sink fed every node, with the pending
// list empty at the end of the run.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/wsn-tools/vn2/internal/chaos"
	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/internal/tracegen"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/sink"
)

// cmdChaosCluster prints the cluster experiment's verdict; cmdChaos
// dispatches here when -cluster is set.
func cmdChaosCluster(o chaosOptions) error {
	res, err := runChaosCluster(o, func(format string, a ...any) { fmt.Fprintf(os.Stderr, format, a...) })
	if err != nil {
		return err
	}
	fmt.Printf("transport: %+v\n", res.Transport)
	fmt.Printf("shards: %d (killed %d), router restarts: %d, deliveries resent after the outage: %d\n",
		res.Shards, res.KilledShard, res.RouterRestarts, res.Resent)
	fmt.Printf("epochs: baseline %d, fleet %d\n", len(res.BaselineCauses), len(res.FleetCauses))
	fmt.Printf("max per-epoch deviation: %.6f (exact: %v)\n", res.MaxDeviation, res.Exact)
	fmt.Printf("fleet digest: %s\n", res.Digest)
	if !res.Exact {
		return fmt.Errorf("chaos-cluster: merged fleet distributions are not bit-identical to the single-sink baseline")
	}
	fmt.Println("chaos-cluster: PASS")
	return nil
}

// chaosClusterResult is what the cluster harness measured.
type chaosClusterResult struct {
	BaselineCauses []online.EpochCauses
	FleetCauses    []online.EpochCauses
	Transport      chaos.Stats
	// Exact reports the merged fleet distributions bit-identical to the
	// single-sink baseline.
	Exact bool
	// MaxDeviation is the worst per-epoch relative L1 distance (0 when
	// bit-identical).
	MaxDeviation float64
	// Digest fingerprints the merged distributions.
	Digest string
	// Resent counts the deliveries the router refused during the outage and
	// the gateway resent once the shard was back; the pending list is empty
	// at the end of the run, or driveClusterRun fails.
	Resent int
	// RouterRestarts counts how often the router was discarded and rebuilt.
	RouterRestarts int
	// KilledShard is which shard took the kill -9.
	KilledShard int
	Shards      int
}

// runChaosCluster drives the sharded experiment. Everything is keyed by
// o.seed; two invocations with the same options produce bit-identical
// results.
func runChaosCluster(o chaosOptions, logf func(string, ...any)) (*chaosClusterResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.clusterShards < 2 {
		return nil, fmt.Errorf("chaos -cluster: -shards must be >= 2, got %d", o.clusterShards)
	}
	if o.drop > 0 {
		return nil, fmt.Errorf("chaos -cluster: the bit-exact fleet claim needs a lossless mix; -drop must be 0")
	}
	dir := o.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "vn2-chaos-cluster-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	calibPath := filepath.Join(dir, "calib.csv")
	modelPath := filepath.Join(dir, "model.json")
	if err := run([]string{"tracegen", "-scenario", o.scenario, "-seed", fmt.Sprint(o.seed), "-out", calibPath}); err != nil {
		return nil, fmt.Errorf("tracegen: %w", err)
	}
	if err := run([]string{"train", "-in", calibPath, "-out", modelPath, "-rank", fmt.Sprint(o.rank), "-all-states"}); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	batches, err := liveBatches(o, tracegen.TestbedEpochs)
	if err != nil {
		return nil, err
	}
	logf("chaos-cluster: %d live epoch batches across %d shards\n", len(batches), o.clusterShards)

	// The ground truth: ONE sink, every node, clean wire, no kill.
	base := driveOptions{calibPath: calibPath, modelPath: modelPath, dir: filepath.Join(dir, "baseline")}
	baseline, err := driveRun(base, batches, nil, 0, logf)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}

	tr, err := chaos.New(chaos.Config{
		Seed:      o.seed,
		Duplicate: o.duplicate,
		Delay:     o.delay,
		Truncate:  o.truncate,
		Shuffle:   o.shuffle,
	})
	if err != nil {
		return nil, err
	}
	res, err := driveClusterRun(o, calibPath, modelPath, filepath.Join(dir, "cluster"), batches, tr, logf)
	if err != nil {
		return nil, fmt.Errorf("cluster run: %w", err)
	}
	res.Transport = tr.Stats()
	res.BaselineCauses = cluster.MergeEpochs(o.rank, baseline.Epochs)
	res.Exact = reflect.DeepEqual(res.BaselineCauses, res.FleetCauses)
	res.MaxDeviation = maxCausesDeviation(res.BaselineCauses, res.FleetCauses)
	b, err := json.Marshal(res.FleetCauses)
	if err != nil {
		return nil, err
	}
	res.Digest = fmt.Sprintf("%x", sha256.Sum256(b))
	return res, nil
}

// clusterShard is one serve shard under the harness's synchronous drive.
type clusterShard struct {
	dir  string
	srv  *sink.Server
	ts   *httptest.Server
	dead bool
}

func buildShard(calibPath, modelPath, dir string) (*clusterShard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := sink.New(sink.Options{
		ModelPath:     modelPath,
		CalibratePath: calibPath,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		WALPath:       filepath.Join(dir, "wal"),
		QueueSize:     4096,
		Sleep:         func(time.Duration) {},
	})
	if err != nil {
		return nil, err
	}
	return &clusterShard{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// driveClusterRun streams the batches through the router into k shards,
// kill -9s one shard after o.killAfter batches and restarts it 5 batches
// later (repointing the router at the new listener), replaces the router
// 2 batches after each of those, and returns the merged fleet view.
func driveClusterRun(o chaosOptions, calibPath, modelPath, dir string, batches [][]trace.Record, tr *chaos.Transport, logf func(string, ...any)) (*chaosClusterResult, error) {
	k := o.clusterShards
	shards := make([]*clusterShard, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		sh, err := buildShard(calibPath, modelPath, filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		shards[i] = sh
		urls[i] = sh.ts.URL
	}
	defer func() {
		for _, sh := range shards {
			if !sh.dead {
				sh.ts.Close()
			}
		}
	}()

	noSleep := func(time.Duration) {}
	res := &chaosClusterResult{Shards: k}
	// bootRouter is a router process start: a fresh Router over the current
	// shard addresses — empty delta cache, every shard optimistically ready.
	// Nothing carries over from the one it replaces, which is the point.
	var (
		rt  *cluster.Router
		rts *httptest.Server
	)
	bootRouter := func() error {
		if rts != nil {
			rts.Close()
			res.RouterRestarts++
		}
		var err error
		rt, err = cluster.NewRouter(cluster.Config{
			Shards:   urls,
			Seed:     uint64(o.seed),
			Attempts: 2,
			RetryMin: time.Millisecond,
			RetryMax: 2 * time.Millisecond,
			Sleep:    noSleep,
		})
		if err != nil {
			return err
		}
		rts = httptest.NewServer(rt.Handler())
		return nil
	}
	if err := bootRouter(); err != nil {
		return nil, err
	}
	defer func() { rts.Close() }()

	// Kill the shard that owns the first reporting node, so the outage is
	// guaranteed to sit in the traffic path.
	killShard := 0
	if len(batches) > 0 && len(batches[0]) > 0 {
		killShard = rt.Ring().Owner(batches[0][0].Node)
	}
	res.KilledShard = killShard
	killAfter := o.killAfter
	restartAt := 0
	if killAfter > 0 {
		restartAt = killAfter + 5
		if restartAt > len(batches) {
			restartAt = len(batches)
		}
	}
	snapshotAt := killAfter / 2

	var enc *packet.FrameEncoder
	if o.bin {
		enc = packet.NewFrameEncoder()
	}
	// The gateway's side of the contract: deliveries go out oldest first and
	// nothing newer is sent while an older one is un-ACKed, so a resend can
	// never land behind a newer report of the same node. A refusal is
	// expected only while the killed shard is down.
	var pending []chaos.Delivery
	deliver := func(ds []chaos.Delivery) error {
		pending = append(pending, ds...)
		for len(pending) > 0 {
			var err error
			if o.bin {
				err = postDeliveryBin(rts.URL, pending[0], enc, noSleep)
			} else {
				err = postDelivery(rts.URL, pending[0], noSleep)
			}
			if err != nil {
				if shards[killShard].dead {
					return nil
				}
				return err
			}
			pending = pending[1:]
		}
		return nil
	}
	settle := func() {
		for _, sh := range shards {
			if sh.dead {
				continue
			}
			sh.srv.IngestQueued()
			sh.srv.DrainTick()
		}
	}

	for i, batch := range batches {
		if err := deliver(tr.Step(batch)); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i+1, err)
		}
		settle()
		if killAfter > 0 && i+1 == killAfter {
			sh := shards[killShard]
			sh.ts.Close()
			if err := sh.srv.AbortWAL(); err != nil {
				return nil, err
			}
			sh.dead = true
			logf("chaos-cluster: killed shard %d after batch %d (queue held %d reports); the router refuses batches that span it\n",
				killShard, i+1, sh.srv.QueueDepth())
		}
		if restartAt > 0 && i+1 == restartAt {
			sh, err := buildShard(calibPath, modelPath, shards[killShard].dir)
			if err != nil {
				return nil, fmt.Errorf("restart shard %d: %w", killShard, err)
			}
			shards[killShard] = sh
			urls[killShard] = sh.ts.URL
			rt.SetShard(killShard, sh.ts.URL)
			rt.ProbeOnce() // readiness confirms; the gateway's resend goes through
			res.Resent = len(pending)
			if err := deliver(nil); err != nil {
				return nil, fmt.Errorf("resend after restart: %w", err)
			}
			logf("chaos-cluster: restarted shard %d after batch %d, %d pending deliveries resent\n",
				killShard, i+1, res.Resent)
			settle()
		}
		if killAfter > 0 && (i+1 == killAfter+2 || i+1 == restartAt+2) {
			if err := bootRouter(); err != nil {
				return nil, fmt.Errorf("replace router: %w", err)
			}
			logf("chaos-cluster: replaced the router after batch %d (%d deliveries pending at the gateway)\n", i+1, len(pending))
		}
		if snapshotAt > 0 && i+1 == snapshotAt {
			for _, sh := range shards {
				if sh.dead {
					continue
				}
				if err := sh.srv.PersistSnapshot(context.Background()); err != nil {
					return nil, fmt.Errorf("mid-run snapshot: %w", err)
				}
			}
		}
	}
	if err := deliver(tr.Flush()); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	settle()
	if len(pending) != 0 {
		return nil, fmt.Errorf("chaos-cluster: %d deliveries still pending at the gateway after recovery", len(pending))
	}

	rank, merged, missing, err := rt.FleetEpochs()
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("chaos-cluster: shards %v missing from the fleet merge", missing)
	}
	if rank != o.rank {
		return nil, fmt.Errorf("chaos-cluster: fleet rank %d, want %d", rank, o.rank)
	}
	res.FleetCauses = merged
	for _, sh := range shards {
		if err := sh.srv.CloseWAL(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// maxCausesDeviation mirrors maxEpochDeviation over already-summed
// distributions.
func maxCausesDeviation(a, b []online.EpochCauses) float64 {
	byEpoch := func(ecs []online.EpochCauses) map[int]map[int]float64 {
		m := make(map[int]map[int]float64, len(ecs))
		for _, ec := range ecs {
			dist := make(map[int]float64, len(ec.Distribution))
			for c, v := range ec.Distribution {
				if v != 0 {
					dist[c] = v
				}
			}
			m[ec.Epoch] = dist
		}
		return m
	}
	am, bm := byEpoch(a), byEpoch(b)
	var worst float64
	for e, ad := range am {
		if d := l1RelDeviation(ad, bm[e]); d > worst {
			worst = d
		}
	}
	for e, bd := range bm {
		if _, ok := am[e]; !ok {
			if d := l1RelDeviation(nil, bd); d > worst {
				worst = d
			}
		}
	}
	return worst
}
