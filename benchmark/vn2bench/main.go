// Command vn2bench is the repository's benchmark: it replays a seeded
// CitySee-shaped fleet through real `vn2 serve` / `vn2 router` processes
// over the production transports, checks the outcome against an in-process
// reference, and prints every end-to-end metric by name; with -trace 1 it
// also replays the same inputs in-process layer by layer and prints the
// per-layer metrics. See ../README.md.
//
//	vn2bench -workload <name|all> -seed N -seconds S -trace 0|1 [-repeat N] [-out dir] [-keep]
//	vn2bench compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	name  string
	unit  string
	bound float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the gated metrics, all lower-is-better and defined on every
// workload. They are the ones that hold still on a shared two-core host: a
// timer-paced lag, a memory reading and a byte count. BENCHMARK.json carries
// the same table (TestBenchmarkJSON keeps them equal).
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"diag_lag_p50_ms", "ms", 0.25},
	{"diag_lag_p90_ms", "ms", 0.25},
	{"rss_mb", "MB", 0.25},
	{"wire_bytes_per_report", "B", 0.10},
}

// perLayer are the ungated metrics, in print order.
var perLayer = []metricDef{
	// What a user sees but this host cannot hold still: on identical inputs
	// these swing 15–40 % between runs minutes apart (see README, Noise).
	// They are printed on every run and compared in pairs, not gated.
	{name: "ack_p50_ms", unit: "ms"},
	{name: "ack_p90_ms", unit: "ms"},
	{name: "cpu_us_per_report", unit: "us"},
	{name: "fleet_p50_ms", unit: "ms"},
	{name: "recovery_s", unit: "s"},
	// Live run, observed from outside the SUT.
	{name: "sink.cpu_us_per_report", unit: "us"},
	{name: "router.cpu_share", unit: "ratio"},
	{name: "sink.rss_peak_mb", unit: "MB"},
	{name: "router.rss_peak_mb", unit: "MB"},
	{name: "sink.queue_depth_max", unit: "count"},
	{name: "sink.pending_max", unit: "count"},
	{name: "sink.nack_busy", unit: "count"},
	{name: "online.dropped", unit: "count"},
	{name: "sink.boot_s", unit: "s"},
	{name: "reporter.retries", unit: "count"},
	{name: "reporter.redials", unit: "count"},
	{name: "reporter.nacks", unit: "count"},
	{name: "reporter.spill_high_water", unit: "count"},
	{name: "router.held", unit: "count"},
	{name: "router.hold_drops", unit: "count"},
	{name: "loadgen.late_share", unit: "ratio"},
	{name: "loadgen.ack_p99_ms", unit: "ms"},
	{name: "loadgen.ack_p999_ms", unit: "ms"},
	{name: "loadgen.ack_max_ms", unit: "ms"},
	{name: "tracegen.reports_per_s", unit: "1/s"},
	{name: "vn2.train_s", unit: "s"},
	// Traced in-process replay: self time per unit around public calls.
	{name: "packet.read_frame_us_per_report", unit: "us"},
	{name: "ingest.decode_bin_us_per_report", unit: "us"},
	{name: "store.reencode_us_per_report", unit: "us"},
	{name: "store.append_batch_us_per_report", unit: "us"},
	{name: "store.sync_us_per_batch", unit: "us"},
	{name: "online.ingest_us_per_report", unit: "us"},
	{name: "ingest.decode_json_us_per_report", unit: "us"},
	{name: "store.append_record_us_per_report", unit: "us"},
	{name: "online.drain_us_per_state", unit: "us"},
	{name: "nnls.solve_us_per_state", unit: "us"},
	{name: "online.drain_cpu_us_per_state", unit: "us"},
	{name: "online.flagged_share", unit: "ratio"},
	{name: "online.drain_cpu_share", unit: "ratio"},
	{name: "bus.publish_us_per_event", unit: "us"},
	{name: "cluster.split_us_per_report", unit: "us"},
	{name: "cluster.reencode_us_per_report", unit: "us"},
	{name: "cluster.forward_us_per_batch", unit: "us"},
	{name: "cluster.merge_us_per_epoch", unit: "us"},
	{name: "store.replay_us_per_report", unit: "us"},
	{name: "trace.read_csv_s", unit: "s"},
	{name: "trace.new_detector_s", unit: "s"},
	{name: "vn2.load_model_s", unit: "s"},
	{name: "store.snapshot_ms", unit: "ms"},
	{name: "sink.handler_us_per_batch", unit: "us"},
	{name: "sink.glue_us_per_batch", unit: "us"},
	{name: "sink.wal_bytes_per_report", unit: "B"},
	{name: "packet.wire_bytes_per_report", unit: "B"},
	{name: "loadgen.encode_us_per_report", unit: "us"},
	{name: "ingest.decode_bin_allocs_per_batch", unit: "count"},
	{name: "online.ingest_allocs_per_report", unit: "count"},
	{name: "cluster.route_allocs_per_batch", unit: "count"},
	{name: "wal.sync_disk_us", unit: "us"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run. Metrics holds the end-to-end metrics, and
// after a traced run the per-layer ones too.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
}

// resultFile is result.json: what compare reads.
type resultFile struct {
	Meta map[string]any `json:"meta"`
	Runs []runResult    `json:"runs"`
}

// runWorkload performs one run of one workload in dir.
func runWorkload(cfg config, w workload, dir, outDir string) (*runResult, error) {
	// Set-up, several times: a single set-up's time is at the mercy of one
	// scheduler hiccup, and it is gated like everything else.
	var setups []float64
	var b *bench
	for i := 0; i < cfg.setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(cfg, w, filepath.Join(dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	run, err := b.ingest()
	if err != nil {
		return nil, err
	}
	before, err := b.sumMetrics()
	if err != nil {
		return nil, err
	}
	peak := make(map[string]float64)
	for _, p := range b.procs() {
		if _, peak[p.name], err = p.rssMB(); err != nil {
			return nil, err
		}
	}
	var routerM map[string]float64
	if b.router != nil {
		if routerM, err = b.router.metrics(); err != nil {
			return nil, err
		}
	}

	ref, err := computeReference(b.fx, run.feed, b.owner())
	if err != nil {
		return nil, err
	}
	if err := checkCounters(before, ref); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := b.check(ref); err != nil {
		return nil, err
	}
	warm := time.Duration(cfg.warmup * float64(time.Second))
	lags, missing := lagSamples(ref, run.ackedAt, run.observers, run.start, warm)

	recoveries, err := b.crashCycles(ref, int(ref.stats.Reports))
	if err != nil {
		return nil, err
	}
	if _, p, err := b.sinks[0].rssMB(); err == nil {
		peak["sink0"] = max(peak["sink0"], p)
	}

	var acks []float64
	ackedReports := 0
	for c, conn := range run.samples {
		for i, s := range conn {
			if s.ok && s.sent >= warm {
				acks = append(acks, float64(s.acked-s.sent)/float64(time.Millisecond))
				ackedReports += len(b.batches[c][i])
			}
		}
	}
	var views []float64
	for _, s := range run.views {
		if s.ok && s.sent >= warm {
			views = append(views, float64(s.acked-s.sent)/float64(time.Millisecond))
		}
	}
	// A percentile needs ten samples beyond it to be more than a handful of
	// outliers: a workload that cannot give its reported percentiles that
	// is mis-sized.
	for _, t := range []struct {
		name string
		n    int
		top  float64 // the highest percentile reported of it
	}{{"ack", len(acks), 0.9}, {"diag_lag", len(lags), 0.9}, {"fleet", len(views), 0.5}} {
		if !cfg.smoke && highestPercentile(t.n) < t.top {
			return nil, fmt.Errorf("%d %s samples cannot support a p%.0f", t.n, t.name, 100*t.top)
		}
		if t.n == 0 {
			return nil, fmt.Errorf("no %s samples", t.name)
		}
	}
	acks, lags, views = sortedCopy(acks), sortedCopy(lags), sortedCopy(views)

	res := &runResult{
		Workload:  w.name,
		Seed:      cfg.seed,
		Correct:   true,
		Attempted: w.reports(cfg),
		Failed:    run.failed + int(before["monitor_dropped"]+before["reports_rejected"]) + missing,
		Metrics:   make(map[string]metricValue),
		Samples:   map[string]int{"ack": len(acks), "diag_lag": len(lags), "fleet": len(views), "recovery": len(recoveries), "setup": len(setups)},
	}
	var sinkPeak, sinkCPU float64
	for _, sk := range b.sinks {
		sinkPeak += peak[sk.name]
		sinkCPU += run.cpuByProc[sk.name]
	}
	values := map[string]float64{
		"setup_s":         median(setups),
		"diag_lag_p50_ms": percentile(lags, 0.5),
		"diag_lag_p90_ms": percentile(lags, 0.9),
		// The median resident set over the window, not its peak: the peak is
		// wherever the last garbage collection happened to start.
		"rss_mb":                median(run.rss),
		"wire_bytes_per_report": float64(run.wireBytes) / float64(ref.stats.Reports),

		"ack_p50_ms":        percentile(acks, 0.5),
		"ack_p90_ms":        percentile(acks, 0.9),
		"cpu_us_per_report": run.cpuS * 1e6 / float64(ackedReports),
		"fleet_p50_ms":      percentile(views, 0.5),
		"recovery_s":        median(recoveries),

		"sink.cpu_us_per_report":    sinkCPU * 1e6 / float64(ackedReports),
		"router.cpu_share":          run.cpuByProc["router"] / run.cpuS,
		"sink.rss_peak_mb":          sinkPeak,
		"router.rss_peak_mb":        peak["router"],
		"sink.pending_max":          run.pendingMax,
		"sink.nack_busy":            before["reports_rejected"],
		"online.dropped":            before["monitor_dropped"],
		"sink.boot_s":               b.bootS,
		"reporter.retries":          float64(run.reporter.Retries),
		"reporter.redials":          float64(run.reporter.Redials),
		"reporter.nacks":            float64(run.reporter.Nacks),
		"reporter.spill_high_water": float64(run.reporter.SpillHighWater),
		"router.held":               routerM["deliveries_held"],
		"router.hold_drops":         routerM["hold_drops"],
		"loadgen.late_share":        float64(run.late) / float64(run.sends),
		"loadgen.ack_p99_ms":        percentile(acks, 0.99),
		"loadgen.ack_p999_ms":       percentile(acks, 0.999),
		"loadgen.ack_max_ms":        acks[len(acks)-1],
		"tracegen.reports_per_s":    float64(b.fx.tracegenReports) / b.fx.tracegenS,
		"vn2.train_s":               b.fx.trainS,
	}
	for _, o := range run.observers {
		values["sink.queue_depth_max"] = max(values["sink.queue_depth_max"], float64(o.queueMax))
	}
	if cfg.trace {
		layers, err := b.traceRun(outDir)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, v := range layers {
			values[k] = v
		}
		// The share of the live run's SUT CPU that diagnosis accounts for:
		// the replay's drain CPU per state × the states flagged in the window.
		flaggedInWindow := layers["online.flagged_share"] * float64(ackedReports)
		values["online.drain_cpu_share"] = layers["online.drain_cpu_us_per_state"] * flaggedInWindow / (run.cpuS * 1e6)
	}
	// Whatever was measured goes into the result: the live run's layer
	// metrics cost nothing extra and belong in the table and result.json
	// whether or not the traced replay ran. printResult insists on the set
	// the driver expects.
	for _, d := range allMetrics() {
		if v, ok := values[d.name]; ok {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return res, nil
}

// printResult prints every measured metric by name, then the one-line JSON
// object the benchmark driver reads, carrying exactly the
// end-to-end metrics (trace off) or exactly the per-layer ones (trace on).
func printResult(res *runResult, traced bool) error {
	fmt.Printf("== %s seed %d: %d reports attempted, %d failed, oracle ok\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	fmt.Printf("   samples: %v\n", res.Samples)
	for _, d := range allMetrics() {
		if mv, ok := res.Metrics[d.name]; ok {
			fmt.Printf("   %-38s %14.4f %s\n", d.name, mv.Value, mv.Unit)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metricValue)}
	for _, d := range defs {
		mv, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s missing from result", d.name)
		}
		line.Metrics[d.name] = mv
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func main() {
	// Children carry Pdeathsig, which the kernel ties to the thread that
	// forked them; every process is started from this goroutine.
	runtime.LockOSThread()
	code := 0
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vn2bench:", err)
		code = 1
	}
	os.Exit(code)
}

func realMain(args []string) (err error) {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: vn2bench compare base.json new.json")
		}
		return compareFiles(args[1], args[2])
	}
	fs := flag.NewFlagSet("vn2bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured window per run, after the warm-up")
	traceFlag := fs.Int("trace", 0, "1 = also run the traced in-process replay and print the per-layer metrics")
	repeat := fs.Int("repeat", 1, "run the set this many times (seed, seed+1, …) and print medians, quartiles and spreads")
	out := fs.String("out", "", "directory for result.json and trace-<workload>.json (must be empty or absent; default: none kept)")
	keep := fs.Bool("keep", false, "keep the work directory (WALs, snapshots, SUT logs)")
	smoke := fs.Bool("smoke", false, "tiny run: short warm-up, one set-up, one crash cycle")
	vn2Bin := fs.String("vn2", ".bench_build/vn2", "the built ./cmd/vn2 binary (benchmark/run.sh builds it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var set []workload
	if *name == "all" {
		set = workloads
	} else if w, ok := findWorkload(*name); ok {
		set = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	bin, err := filepath.Abs(*vn2Bin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("vn2 binary: %w (run the benchmark through benchmark/run.sh, which builds it)", err)
	}
	if pids := leftoverSUT(bin); len(pids) > 0 {
		return fmt.Errorf("a previous run's SUT is still alive (pids %v); stop it first", pids)
	}

	outDir := *out
	if outDir == "" {
		outDir = filepath.Join(filepath.Dir(bin), fmt.Sprintf("run-%d", os.Getpid()))
	}
	if entries, err := os.ReadDir(outDir); err == nil && len(entries) > 0 {
		return fmt.Errorf("output directory %s is not empty", outDir)
	}
	workDir := filepath.Join(outDir, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	cleanup := func() {
		killAll()
		if !*keep {
			os.RemoveAll(workDir)
			if *out == "" {
				os.RemoveAll(outDir)
			}
		}
	}
	// Every exit path stops the SUT: return, panic, and the signals a
	// driver or a closed pipe can send.
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
		cleanup()
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	finished := make(chan struct{})
	defer close(finished)
	defer signal.Stop(sigs)
	go func() {
		select {
		case s := <-sigs:
			cleanup()
			fmt.Fprintln(os.Stderr, "vn2bench: stopped by", s)
			os.Exit(130)
		case <-finished:
		}
	}()

	cfg := config{
		vn2Bin: bin, seconds: *seconds, warmup: 2, setupReps: 3, crashes: 7,
		snapshotEvery: 2 * time.Second, traceBatches: 2000,
		conns: max(1, min(runtime.NumCPU()-1, 3)), trace: *traceFlag == 1, smoke: *smoke,
	}
	if *smoke {
		cfg.warmup, cfg.setupReps, cfg.crashes = 0.3, 1, 1
		cfg.snapshotEvery, cfg.traceBatches = 250*time.Millisecond, 100
	}
	file := resultFile{Meta: map[string]any{
		"commit": gitCommit(), "go": runtime.Version(), "nproc": runtime.NumCPU(), "ingest_conns": cfg.conns,
		"wal_fs": fsType(workDir), "seconds": cfg.seconds, "warmup_s": cfg.warmup, "started": time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("vn2bench: %v\n", file.Meta)
	for r := 0; r < *repeat; r++ {
		cfg.seed = *seed + int64(r)
		for _, w := range set {
			dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, r))
			res, err := runWorkload(cfg, w, dir, outDir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
			}
			if !*keep {
				os.RemoveAll(dir)
			}
			file.Runs = append(file.Runs, *res)
			if err := printResult(res, cfg.trace); err != nil {
				return err
			}
		}
	}
	if *repeat > 1 {
		printSpreads(file.Runs)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(outDir, "result.json"), raw, 0o644)
	}
	return nil
}

// byWorkload groups one metric's values per workload, in workload order.
func byWorkload(runs []runResult, metric string) (names []string, values map[string][]float64) {
	values = make(map[string][]float64)
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok {
			if _, seen := values[r.Workload]; !seen {
				names = append(names, r.Workload)
			}
			values[r.Workload] = append(values[r.Workload], mv.Value)
		}
	}
	return names, values
}

// boundText renders a metric's bound column: per-layer metrics have none.
func boundText(d metricDef) string {
	if d.bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*d.bound)
}

// printSpreads summarises repeated runs: per metric and workload the median,
// the quartiles, and the interquartile spread, held against the bound where
// the metric has one.
func printSpreads(runs []runResult) {
	fmt.Printf("\n%-16s %-36s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, d := range allMetrics() {
		names, values := byWorkload(runs, d.name)
		for _, w := range names {
			v := values[w]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			note := ""
			if sp := spread(v); d.bound > 0 && sp > d.bound {
				note = "  spread exceeds the bound"
			} else if d.bound > 0 && sp > d.bound/3 {
				note = "  spread above a third of the bound"
			}
			fmt.Printf("%-16s %-36s %3d %12.4f %12.4f %12.4f %7.1f%% %6s%s\n", w, d.name, len(v), q1, med, q3, 100*spread(v), boundText(d), note)
		}
	}
}

// compareFiles holds new.json against base.json, one row per workload and
// metric with every ratio beside its base. An end-to-end metric's median may
// worsen by at most its bound and failures may not rise; per-layer metrics
// are listed without a verdict.
func compareFiles(basePath, newPath string) error {
	load := func(path string) (*resultFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		return &f, json.Unmarshal(raw, &f)
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	next, err := load(newPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-16s %-36s %12s %12s %8s %6s\n", "workload", "metric", "base", "new", "new/base", "bound")
	for _, d := range allMetrics() {
		names, bv := byWorkload(base.Runs, d.name)
		_, nv := byWorkload(next.Runs, d.name)
		for _, w := range names {
			if len(nv[w]) == 0 {
				continue
			}
			b, n := median(bv[w]), median(nv[w])
			verdict := ""
			if d.bound > 0 && n > b*(1+d.bound) {
				verdict = "  REGRESSION"
				bad++
			}
			ratio := "-" // a count that is 0 at base has no ratio
			if b != 0 {
				ratio = fmt.Sprintf("%.3f", n/b)
			}
			fmt.Printf("%-16s %-36s %12.4f %12.4f %8s %6s%s\n", w, d.name, b, n, ratio, boundText(d), verdict)
		}
	}
	failures := func(f *resultFile) map[string]int {
		out := make(map[string]int)
		for _, r := range f.Runs {
			out[r.Workload] += r.Failed
		}
		return out
	}
	bf, nf := failures(base), failures(next)
	names := make([]string, 0, len(nf))
	for w := range nf {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		if nf[w] > bf[w] {
			fmt.Printf("%-16s %-36s %12d %12d  REGRESSION\n", w, "failed", bf[w], nf[w])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds", bad)
	}
	return nil
}
