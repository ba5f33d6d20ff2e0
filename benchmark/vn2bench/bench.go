package main

// One workload run: set the system up, replay the fleet through it on
// schedule, check the outcome against the reference, crash and recover it,
// and reduce what was observed to named metrics.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/wsn-tools/vn2/internal/packet"
	"github.com/wsn-tools/vn2/internal/trace"
	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/online"
	"github.com/wsn-tools/vn2/vn2/reporter"
)

// workload is one traffic mix. Rates are a fraction of what a 2-vCPU host
// saturates at, so that host still keeps up with the load generator on
// the same cores and nothing fails at baseline.
type workload struct {
	name      string
	why       string
	transport string  // "stream" (vn2/reporter), "bin" (POST /report/bin), "json" (POST /report)
	storm     bool    // the September failure window instead of a healthy fleet
	districts int     // fleet size in replicas of the 72-node district trace (a storm sizes itself)
	rate      float64 // reports/s offered; 0 = preload spread over the run
	preload   int     // fixed report count (crash-recover)
	shards    int     // 0 = one direct sink, else sinks behind a router
	snapshot  bool    // periodic snapshots on; off = recovery replays the whole WAL
	// flagShare is the share of the workload's states the sink flags for
	// diagnosis. How many states a seed's trace sends past the paper's fixed
	// cutoff varies threefold between seeds, and diagnosing a state costs
	// ~100× everything else done for it; set-up picks the cutoff that flags
	// exactly this share instead, so every seed offers the same diagnosis load.
	flagShare float64
}

// Fleets are sized for epochs, not nodes: a diagnosis-lag sample needs an
// epoch with a flagged state, so at a given rate a smaller fleet turning
// over more epochs measures the lag better, and per-node cost is flat.
var workloads = []workload{
	{
		name: "stream-direct", transport: "stream", districts: 8, rate: 40000, snapshot: true, flagShare: 0.002,
		why: "healthy fleet over the persistent delta-frame stream to one sink: frame decode, WAL group commit, queue and Monitor.Ingest carry the load, diagnosis almost none",
	},
	{
		name: "router-bin", transport: "bin", districts: 2, rate: 10000, shards: 2, snapshot: true, flagShare: 0.01,
		why: "the same fleet as HTTP frames through the router into 2 shards: ring split, re-encode, per-shard forward and the /fleet merge carry the load",
	},
	{
		name: "storm-json", transport: "json", storm: true, rate: 2500, snapshot: true, flagShare: 0.2,
		why: "failure-window fleet (a fifth of states flagged) as JSON to one sink: Drain and NNLS dominate, plus JSON decode and per-record WAL appends",
	},
	{
		name: "crash-recover", transport: "stream", districts: 2, preload: 150000, flagShare: 0.01,
		why: "150k reports with snapshots off, then repeated kill -9: recovery replays the whole WAL, the read side of every append",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is what the command line fixes for every workload of an invocation.
type config struct {
	vn2Bin    string
	seed      int64
	seconds   float64
	warmup    float64
	setupReps int
	crashes   int // kill -9 / restart cycles after the window
	// snapshotEvery is the SUT's snapshot interval; the crash cycles wait for
	// the first snapshot after the window.
	snapshotEvery time.Duration
	traceBatches  int // how long a prefix of the workload the traced run replays
	conns         int
	trace         bool
	smoke         bool
}

// reports is how many reports the workload offers in one run, a whole number
// of full batches per connection.
func (w workload) reports(cfg config) int {
	n := float64(w.preload)
	if cfg.smoke {
		n = min(n, 20000)
	}
	if w.rate > 0 {
		n = w.rate * (cfg.warmup + cfg.seconds)
	}
	per := batchSize * cfg.conns
	return max(1, int(n)/per) * per
}

func (w workload) offeredRate(cfg config) float64 {
	return float64(w.reports(cfg)) / (cfg.warmup + cfg.seconds)
}

// bench is a set-up system: fixtures on disk, processes ready, batches cut.
type bench struct {
	cfg     config
	w       workload
	dir     string
	fx      *fixtures
	sinks   []*proc
	streams []string // stream address per sink
	router  *proc
	batches [][][]trace.Record // per connection
	bootS   float64            // exec → /readyz of the slowest sink, empty WAL
}

func (b *bench) procs() []*proc {
	if b.router != nil {
		return append([]*proc{b.router}, b.sinks...)
	}
	return b.sinks
}

func (b *bench) close() {
	for _, p := range b.procs() {
		p.kill()
	}
}

// owner maps a node to the index in b.sinks of the sink its reports reach:
// the router's consistent-hash ring, rebuilt here from the same seed.
func (b *bench) owner() func(packet.NodeID) int {
	if b.router == nil {
		return func(packet.NodeID) int { return 0 }
	}
	return cluster.NewRing(uint64(b.cfg.seed), len(b.sinks), 0).Owner
}

func (b *bench) ingestBase() string {
	if b.router != nil {
		return "http://" + b.router.http
	}
	return "http://" + b.sinks[0].http
}

func (b *bench) viewURL() string {
	if b.router != nil {
		return b.ingestBase() + "/fleet"
	}
	return b.ingestBase() + "/epochs"
}

// setUp generates the fixtures, boots the SUT and cuts the batches. It is
// what setup_s times.
func setUp(cfg config, w workload, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	districts, stagger, liveDays := w.districts, staggerEpochs, 0
	if !w.storm {
		// A healthy district delivers nearly all of its 144 reports per node
		// and day, and the last district starts its stagger into the trace;
		// one day more than that covers what is lost.
		liveDays = (w.reports(cfg)/(districts*districtNodes)+(districts-1)*stagger)/epochsPerDay + 2
	}
	fx, err := makeFixtures(dir, cfg.seed, w.storm, liveDays)
	if err != nil {
		return nil, err
	}
	if w.storm {
		// A storm is one day long and thinned by its own packet loss: it is
		// played whole, in as many districts as the run needs reports. Nearly
		// every one of its epochs has flagged states as it is.
		districts, stagger = (w.reports(cfg)+len(fx.live)-1)/len(fx.live), 0
	}
	recs, err := replicate(fx.live, districts, stagger, w.reports(cfg))
	if err != nil {
		return nil, err
	}
	if fx.det.Threshold, err = flagThreshold(fx, recs, w.flagShare); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, dir: dir, fx: fx, batches: partition(recs, cfg.conns)}
	const bootAttempts = 3 // a released port can be taken before the child binds it
	for attempt := 1; ; attempt++ {
		if err = b.boot(); err == nil {
			return b, nil
		}
		b.close()
		if attempt == bootAttempts {
			return nil, err
		}
	}
}

func (b *bench) sinkProc(i int) (*proc, string, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	streamAddr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	name := fmt.Sprintf("sink%d", i)
	args := []string{"serve",
		"-addr", httpAddr, "-stream-addr", streamAddr,
		"-model", b.fx.modelPath, "-calibrate", b.fx.calibPath,
		"-wal", filepath.Join(b.dir, name+"-wal"),
		"-drain-interval", "50ms", "-queue", "8192",
		"-threshold", strconv.FormatFloat(b.fx.det.Threshold, 'g', -1, 64),
		// The SSE observer must see every event: at 600 frames/s the default
		// 64-event ring would drop before one scheduler hiccup is over.
		"-stream-buffer", "8192",
	}
	if b.w.snapshot {
		args = append(args, "-snapshot", filepath.Join(b.dir, name+"-snapshot.json"), "-snapshot-interval", b.cfg.snapshotEvery.String())
	}
	p := &proc{name: name, bin: b.cfg.vn2Bin, args: args, http: httpAddr, logPath: filepath.Join(b.dir, name+".log")}
	return p, streamAddr, nil
}

// boot starts every process and waits until all are ready.
func (b *bench) boot() error {
	b.sinks, b.streams, b.router = nil, nil, nil
	n := max(1, b.w.shards)
	started := make([]time.Time, n)
	for i := 0; i < n; i++ {
		p, streamAddr, err := b.sinkProc(i)
		if err != nil {
			return err
		}
		started[i] = time.Now()
		if err := p.start(); err != nil {
			return err
		}
		b.sinks = append(b.sinks, p)
		b.streams = append(b.streams, streamAddr)
	}
	b.bootS = 0
	for i, p := range b.sinks {
		if err := p.waitHTTP("/readyz", 60*time.Second); err != nil {
			return err
		}
		b.bootS = max(b.bootS, time.Since(started[i]).Seconds())
	}
	if b.w.shards == 0 {
		return nil
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	urls := make([]string, n)
	for i, p := range b.sinks {
		urls[i] = "http://" + p.http
	}
	b.router = &proc{name: "router", bin: b.cfg.vn2Bin, http: addr, logPath: filepath.Join(b.dir, "router.log"),
		args: []string{"router", "-addr", addr, "-shards", strings.Join(urls, ","), "-seed", fmt.Sprint(b.cfg.seed)}}
	if err := b.router.start(); err != nil {
		return err
	}
	return b.router.waitHTTP("/healthz", 30*time.Second)
}

// liveRun is what the timed window observed.
type liveRun struct {
	samples    [][]sample // per connection, per batch
	sends      int
	late       int
	cpuS       float64            // SUT CPU over the measured window, all processes
	cpuByProc  map[string]float64 // the same per process
	views      []sample
	rss        []float64 // SUT resident MB, sampled every rssEvery over the window
	wireBytes  int64     // frame and body bytes the generator wrote
	pendingMax float64
	observers  []*sseObserver
	reporter   reporter.Stats // summed over stream connections
	start      time.Time
	// What the SUT acknowledged, as one feed for the reference: the batches,
	// when each was ACKed, and how many reports never were.
	feed    [][]trace.Record
	ackedAt []time.Duration
	failed  int
}

func (b *bench) cpuNow() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range b.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out[p.name] = s
	}
	return out, nil
}

// viewEvery paces the fleet-view reads: often enough for a median over a
// ten-second window, rare enough that the reads stay a side load (a storm's
// view is ~17 ms of the sink's CPU to render).
const viewEvery = 250 * time.Millisecond

// rssEvery paces the resident-set readings.
const rssEvery = 20 * time.Millisecond

// ingest replays the batches on schedule with the observers attached, then
// waits until the SUT has applied and diagnosed everything it ACKed.
func (b *bench) ingest() (*liveRun, error) {
	run := &liveRun{samples: make([][]sample, b.cfg.conns)}
	senders := make([]sender, b.cfg.conns)
	for c := range senders {
		var err error
		switch b.w.transport {
		case "stream":
			senders[c], err = newStreamSender(b.streams[0], b.cfg.seed+int64(c))
		default:
			senders[c] = newHTTPSender(b.ingestBase(), b.w.transport == "bin")
		}
		if err != nil {
			return nil, err
		}
		defer senders[c].close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, sk := range b.sinks {
		o, err := watchStream(ctx, "http://"+sk.http)
		if err != nil {
			return nil, err
		}
		run.observers = append(run.observers, o)
	}

	window := time.Duration((b.cfg.warmup + b.cfg.seconds) * float64(time.Second))
	warm := time.Duration(b.cfg.warmup * float64(time.Second))
	run.start = time.Now()
	pollCtx, stopPoll := context.WithCancel(ctx)
	poller := pollView(pollCtx, b.viewURL(), b.sinks, viewEvery, run.start)
	rss := sampleRSS(pollCtx, b.procs(), rssEvery, run.start)

	var cpu0 map[string]float64
	var cpuErr error
	warmed := make(chan struct{})
	go func() {
		defer close(warmed)
		time.Sleep(warm)
		cpu0, cpuErr = b.cpuNow()
	}()
	schedules := make([]*schedule, b.cfg.conns)
	done := make(chan int, b.cfg.conns) // one completion per connection
	for c := range senders {
		schedules[c] = newSchedule(b.w.offeredRate(b.cfg), b.cfg.conns)
		go func(c int) {
			// A SUT that falls behind gets twice the window before the rest
			// of its batches count as failed.
			run.samples[c] = runConn(senders[c], b.batches[c], schedules[c], run.start, 2*window)
			done <- c
		}(c)
	}
	for range senders {
		<-done
	}
	cpu1, err := b.cpuNow()
	stopPoll()
	<-poller.done
	<-rss.done
	<-warmed
	for _, e := range []error{cpuErr, poller.err, rss.err} {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	run.cpuByProc = make(map[string]float64)
	for name, s := range cpu1 {
		run.cpuByProc[name] = s - cpu0[name]
		run.cpuS += s - cpu0[name]
	}
	for _, sch := range schedules {
		run.sends += sch.sends
		run.late += sch.late
	}
	run.views, run.pendingMax = poller.latencies, poller.pendingMax
	for i, at := range rss.at {
		if at >= warm {
			run.rss = append(run.rss, rss.mb[i])
		}
	}
	for _, snd := range senders {
		run.wireBytes += snd.wireBytes()
		if ss, ok := snd.(*streamSender); ok {
			st := ss.rep.Stats()
			run.reporter.Retries += st.Retries
			run.reporter.Redials += st.Redials
			run.reporter.Nacks += st.Nacks
			run.reporter.SpillHighWater = max(run.reporter.SpillHighWater, st.SpillHighWater)
		}
	}

	run.feed, run.ackedAt, run.failed = b.acked(run)
	reports := 0
	for _, batch := range run.feed {
		reports += len(batch)
	}
	if err := b.quiesce(reports); err != nil {
		return nil, err
	}
	if err := b.awaitEvents(run.observers); err != nil {
		return nil, err
	}
	cancel()
	for _, o := range run.observers {
		<-o.done
		if o.err != nil {
			return nil, o.err
		}
	}
	return run, nil
}

// sumMetrics adds up the sinks' /metrics counters.
func (b *bench) sumMetrics() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, sk := range b.sinks {
		m, err := sk.metrics()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// quiesce waits until the monitors have seen all the ACKed reports and
// diagnosed every flagged state (or dropped it — the oracle reports that).
func (b *bench) quiesce(reports int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := b.sumMetrics()
		if err != nil {
			return err
		}
		if m["queue_depth"] == 0 && int(m["monitor_reports"]) >= reports &&
			m["monitor_diagnosed"]+m["monitor_dropped"] == m["monitor_flagged"] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("SUT did not quiesce: %v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitEvents gives the announcements of the last drain the time to reach
// the observers: the sinks count a state as diagnosed before the event that
// says so has crossed the SSE stream. What has still not arrived after two
// seconds is the oracle's to report.
func (b *bench) awaitEvents(observers []*sseObserver) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := b.sumMetrics()
		if err != nil {
			return err
		}
		var announced int64
		for _, o := range observers {
			announced += o.announced.Load()
		}
		if announced >= int64(m["monitor_diagnosed"]) || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// acked flattens the ACKed batches into one feed for the reference, keeping
// each connection's order. It also returns, per fed batch, when it was ACKed.
func (b *bench) acked(run *liveRun) (feed [][]trace.Record, ackedAt []time.Duration, failed int) {
	for c, conn := range run.samples {
		// A failed Flush leaves its reports in the reporter's spill queue and
		// the next successful Flush delivers them, so on the stream
		// everything up to the last ACK arrived.
		lastOK := -1
		for i, s := range conn {
			if s.ok {
				lastOK = i
			}
		}
		for i, s := range conn {
			if !s.ok {
				failed += len(b.batches[c][i])
			}
			if s.ok || (b.w.transport == "stream" && i < lastOK) {
				feed = append(feed, b.batches[c][i])
				ackedAt = append(ackedAt, s.acked)
			}
		}
	}
	return feed, ackedAt, failed
}

// check holds the SUT's view and counters against the reference; the
// returned error is the oracle's diff.
func (b *bench) check(ref *reference) error {
	if b.router != nil {
		var fleet struct {
			Partial bool                 `json:"partial"`
			Epochs  []online.EpochCauses `json:"epochs"`
		}
		if err := getJSON(b.viewURL(), &fleet); err != nil {
			return err
		}
		if fleet.Partial {
			return errors.New("oracle: /fleet is partial (a shard did not answer)")
		}
		epoch := func(e online.EpochCauses) int { return e.Epoch }
		if d := diffEpochs(retained(fleet.Epochs, ref.stats.LastEpoch, epoch), ref.causes, epoch); d != "" {
			return errors.New("oracle: /fleet differs from the reference: " + d)
		}
	} else {
		var view struct {
			Epochs []online.EpochState `json:"epochs"`
		}
		if err := getJSON(b.viewURL(), &view); err != nil {
			return err
		}
		epoch := func(e online.EpochState) int { return e.Epoch }
		if d := diffEpochs(retained(view.Epochs, ref.stats.LastEpoch, epoch), ref.epochs, epoch); d != "" {
			return errors.New("oracle: /epochs differs from the reference: " + d)
		}
	}
	return nil
}

// crashCycles kill -9s the first sink and restarts it on the same WAL,
// timing kill → /readyz 200, then requires the recovered view to match the
// reference again. With snapshots on it first waits for a snapshot that
// covers the whole run, so every cycle restores the same state.
func (b *bench) crashCycles(ref *reference, reports int) ([]float64, error) {
	sk := b.sinks[0]
	if b.w.snapshot {
		if err := b.awaitSnapshot(sk); err != nil {
			return nil, err
		}
	}
	var out []float64
	for i := 0; i < b.cfg.crashes; i++ {
		t0 := time.Now()
		sk.kill()
		if err := sk.start(); err != nil {
			return nil, err
		}
		if err := sk.waitHTTP("/readyz", 60*time.Second); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		// A WAL replay leaves its flagged states to the first drain tick.
		if err := b.quiesce(reports); err != nil {
			return nil, err
		}
		if !b.w.snapshot {
			m, err := sk.metrics()
			if err != nil {
				return nil, err
			}
			if int(m["wal_replayed"]) != reports {
				return nil, fmt.Errorf("oracle: restart %d replayed %v reports from the WAL, %d were ACKed", i+1, m["wal_replayed"], reports)
			}
		}
		if err := b.check(ref); err != nil {
			return nil, fmt.Errorf("after restart %d: %w", i+1, err)
		}
	}
	return out, nil
}

// awaitSnapshot waits for a periodic snapshot cut after the last report was
// applied: its watermark then equals the WAL's end.
func (b *bench) awaitSnapshot(sk *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	m0, err := sk.metrics()
	if err != nil {
		return err
	}
	for {
		m, err := sk.metrics()
		if err != nil {
			return err
		}
		if m["snapshots_written"] > m0["snapshots_written"] {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("no snapshot within 30s of the run's end")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// lagSamples computes the diagnosis lag of every batch ACKed inside the
// window that carried a flagged report: the time from its ACK to the arrival
// of the EpochDiagnosed event that announced the last of its diagnoses. An
// event carries the count of its epoch's states diagnosed so far, and a
// sink diagnoses in the order it ACKs, so the event with count c is the
// first to cover the c earliest-ACKed flagged reports of that sink's share
// of the epoch. One sample per batch, not per report: batches arrive at an
// even pace, flagged reports in bursts, and a burst both lengthens its own
// drain and would weigh it by its size. missing counts the flagged reports
// no event ever covered.
func lagSamples(ref *reference, ackedAt []time.Duration, observers []*sseObserver, start time.Time, warm time.Duration) (lags []float64, missing int) {
	announced := make(map[int]time.Duration) // batch position → arrival of its last announcement
	lost := make(map[int]bool)               // batches with a report never announced
	for key, positions := range ref.flagged {
		// Feed order is ACK order within a connection; across connections
		// the ACK times decide.
		sort.SliceStable(positions, func(i, j int) bool { return ackedAt[positions[i]] < ackedAt[positions[j]] })
		covered := 0
		for _, ev := range observers[key.sink].diag[key.epoch] {
			for ; covered < min(ev.states, len(positions)); covered++ {
				pos := positions[covered]
				announced[pos] = max(announced[pos], ev.at.Sub(start))
			}
		}
		missing += len(positions) - covered
		for _, pos := range positions[covered:] {
			lost[pos] = true
		}
	}
	for pos, at := range announced {
		if ack := ackedAt[pos]; ack >= warm && !lost[pos] {
			lags = append(lags, float64(at-ack)/float64(time.Millisecond))
		}
	}
	return lags, missing
}
