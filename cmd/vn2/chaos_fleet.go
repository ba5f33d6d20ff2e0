package main

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/sink"
)

// streamReadTimeout is the sinks' per-frame read deadline on the stream
// edge; the slowloris probe stalls exactly this long.
const streamReadTimeout = 300 * time.Millisecond

// noSleep stands in for every backoff sleep: the harness is synchronous, so
// what a retry waits for happens between steps, not during a wait.
func noSleep(time.Duration) {}

// fleet is the system under test: o.shards WAL-backed sinks driven
// synchronously by the harness. One sink is dialed directly; two or more
// sit behind the cluster router, and what the oracle compares becomes the
// router's own /fleet merge.
type fleet struct {
	o      chaosOptions
	shards []*shard

	rt             *cluster.Router // nil for one sink
	rts            *httptest.Server
	routerRestarts int
}

// shard is one sink process as the harness sees it: a state directory that
// outlives kills, and whatever currently serves from it.
type shard struct {
	dir  string
	srv  *sink.Server
	ts   *httptest.Server // the HTTP edge; nil on the stream transport
	edge string           // what a client dials: base URL, or host:port
	dead bool
}

// start boots the shards under dir and, for two or more, the router.
func (f *fleet) start(dir string) error {
	for i := 0; i < f.o.shards; i++ {
		sh, err := f.boot(filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return err
		}
		f.shards = append(f.shards, sh)
	}
	if f.o.shards > 1 {
		return f.bootRouter()
	}
	return nil
}

// boot is a sink process start over dir: a fresh server that recovers
// whatever snapshot and WAL a previous life left there, listening on the
// edge the run's transport dials.
func (f *fleet) boot(dir string) (*shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := sink.New(sink.Options{
		ModelPath:         f.o.modelPath(),
		CalibratePath:     f.o.calibPath(),
		SnapshotPath:      filepath.Join(dir, "snapshot.json"),
		WALPath:           filepath.Join(dir, "wal"),
		QueueSize:         4096,
		StreamReadTimeout: streamReadTimeout,
	})
	if err != nil {
		return nil, err
	}
	sh := &shard{dir: dir, srv: srv}
	if f.o.transport != "stream" {
		sh.ts = httptest.NewServer(srv.Handler())
		sh.edge = sh.ts.URL
		return sh, nil
	}
	addr, err := srv.StartStream("127.0.0.1:0")
	if err != nil {
		srv.CloseWAL()
		return nil, err
	}
	sh.edge = addr.String()
	return sh, nil
}

// unlisten tears the shard's edge down abruptly, live connections included.
func (sh *shard) unlisten() error {
	if sh.ts != nil {
		sh.ts.Close()
	}
	return sh.srv.StopStream(false)
}

// bootRouter is a router process start: a fresh Router over the current
// shard addresses, every shard optimistically ready. Nothing carries over
// from the one it replaces (it held no delta cache), which is the point.
func (f *fleet) bootRouter() error {
	if f.rts != nil {
		f.rts.Close()
		f.routerRestarts++
	}
	urls := make([]string, len(f.shards))
	for i, sh := range f.shards {
		urls[i] = sh.edge
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: urls, Seed: uint64(f.o.wire.Seed)})
	if err != nil {
		return err
	}
	f.rt, f.rts = rt, httptest.NewServer(rt.Handler())
	return nil
}

// edge is where a client sends: the router when there is one, else the
// sink. Read it per delivery — restarts and router swaps move it.
func (f *fleet) edge() string {
	if f.rts != nil {
		return f.rts.URL
	}
	return f.shards[0].edge
}

// victim picks the shard to kill: the one that owns the first reporting
// node, so the outage is guaranteed to sit in the traffic path.
func (f *fleet) victim(batches [][]trace.Record) int {
	if f.rt == nil || len(batches) == 0 || len(batches[0]) == 0 {
		return 0
	}
	return f.rt.Ring().Owner(batches[0][0].Node)
}

// kill is kill -9 on shard i — edge torn down, journal closed without a
// flush — and reports how many ACKed reports died in its queue.
func (f *fleet) kill(i int) (queued int, err error) {
	sh := f.shards[i]
	sh.dead = true
	return sh.srv.QueueDepth(), errors.Join(sh.unlisten(), sh.srv.AbortWAL())
}

// restart boots shard i again from its directory and, behind a router,
// repoints the router at the new listener and lets one probe re-admit it.
func (f *fleet) restart(i int) error {
	sh, err := f.boot(f.shards[i].dir)
	if err != nil {
		return err
	}
	f.shards[i] = sh
	if f.rt != nil {
		f.rt.SetShard(i, sh.edge)
		f.rt.ProbeOnce()
	}
	return nil
}

func (f *fleet) live() (live []*shard) {
	for _, sh := range f.shards {
		if !sh.dead {
			live = append(live, sh)
		}
	}
	return live
}

// settle is one tick of every live sink's background loops: move the queue
// into the monitor, then diagnose what that flagged.
func (f *fleet) settle() {
	for _, sh := range f.live() {
		sh.srv.IngestQueued()
		sh.srv.DrainTick()
	}
}

func (f *fleet) snapshot() error {
	for _, sh := range f.live() {
		if err := sh.srv.PersistSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

// view is what the fleet serves: one sink's per-node epoch export, or the
// router's merge of every shard's — which must cover all of them.
func (f *fleet) view() (chaosView, error) {
	if f.rt == nil {
		eps := f.shards[0].srv.MonitorState().Epochs
		return chaosView{Epochs: eps, Causes: cluster.MergeEpochs(chaosRank, eps)}, nil
	}
	rank, merged, missing, err := f.rt.FleetEpochs()
	switch {
	case err != nil:
		return chaosView{}, err
	case len(missing) > 0:
		return chaosView{}, fmt.Errorf("shards %v missing from the fleet merge", missing)
	case rank != chaosRank:
		return chaosView{}, fmt.Errorf("fleet rank %d, want %d", rank, chaosRank)
	}
	return chaosView{Causes: merged}, nil
}

// close shuts every live shard down cleanly. A second call finds nothing
// live, so drive defers it for its error paths.
func (f *fleet) close() (err error) {
	if f.rts != nil {
		f.rts.Close()
	}
	for _, sh := range f.live() {
		sh.dead = true
		err = errors.Join(err, sh.unlisten(), sh.srv.CloseWAL())
	}
	return err
}
