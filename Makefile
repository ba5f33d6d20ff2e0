# Developer entry points. `make check` is the full pre-commit gate:
# vet + build + tests + race detector over the concurrent packages, plus a
# build-and-short-test of the nested benchmark module.

GO ?= go

# The concurrent packages. par is the fork-join the coarse loops share, and
# nnls and nmf fan out on it (batch solves, the rank sweep); the race
# detector must stay clean on them for any worker count. vn2/online and
# vn2/sink are included for the
# streaming monitor and the sink service (concurrent ingest/drain/snapshot,
# the lifecycle hot-swap, and the event bus under /stream subscribers).
# wal, retry, and chaos are the crash-safety layer under the same gate.
# packet carries the wire codecs (fixed-point packets and the batched
# binary frame format the sink's /report/bin path decodes).
# vn2/reporter is the persistent-stream client (concurrent Report/Flush
# over the spill queue, the breaker, and live TCP connections).
RACE_PKGS = ./internal/par/... ./internal/nnls/... ./internal/nmf/... ./internal/wal/... ./internal/retry/... ./internal/chaos/... ./internal/packet/... ./vn2/online/... ./vn2/sink/... ./vn2/reporter/... ./vn2/cluster/... ./cmd/vn2/...

# Short smoke budget per fuzz target inside `make check`; raise for a real
# fuzzing session (e.g. FUZZ_TIME=10m make fuzz).
FUZZ_TIME ?= 3s

# Pinned linter versions. `make lint` uses the tools when they are on PATH
# and degrades to a skip notice when they are not (the CI image may be
# offline); install with the printed `go install` lines to match CI.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# The scaling ladders `make bench` runs: per-epoch cost at CitySee scale,
# end-to-end trace generation at 60/120/286/1000 nodes and
# the blocked-GEMM size ladder — slices nothing else times. The ingest path
# and the router are timed by `vn2bench --trace 1`'s per-layer spans.
BENCH_PATTERN ?= BenchmarkSimulatorEpoch|BenchmarkCitySeeTraining|BenchmarkGEMM

.PHONY: check fmt vet lint build test race fuzz bench-build loc knobs knobs-list experiments chaos chaos-stream chaos-cluster chaos-all smoke smoke-stream bench bench-all benchpairs benchsoak benchsmoke

check: fmt vet lint build test race fuzz bench-build benchsmoke

# fmt fails when gofmt would rewrite any file of the root module.
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*')); \
		if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the pinned static analyzers when present and skips gracefully
# when not, so `make check` works on offline machines without the tools.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not found; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not found; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

# test includes TestExperimentDigests, the full seed-17 run held to
# experiments_full.txt: ≈40 s alone on a 2-vCPU host, ≈80 s beside the other
# packages. `go test -short` skips it.
test:
	$(GO) test ./...

# experiments regenerates experiments_full.txt — the output of the full
# seed-17 run that TestExperimentDigests holds every experiment to — and
# experiments_full.err, its stderr and exit status (≈50 s on one core).
experiments:
	@$(GO) run ./cmd/vn2 experiment all -seed 17 >experiments_full.txt 2>experiments_full.err; \
		s=$$?; echo "exit=$$s" >>experiments_full.err; exit $$s

race:
	$(GO) test -race $(RACE_PKGS)

# bench-build vets and short-tests the benchmark harness. benchmark/ is its
# own module compiled against this one (`replace => ../`), so the root
# `go build ./... && go test ./...` never descends into it: without this an
# API deletion that breaks the regression gate's harness would pass check.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# loc prints the root module's non-test Go line count — the number behind
# ROADMAP's "net non-test LoC goes down".
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l

# knobs-list prints every value someone can set, one a line: `flag:<name>`
# for each cmd/vn2 flag definition, `<file>:<Field>` for each exported field
# of every Options / Config / TrainConfig / DiagnoseConfig struct outside the
# simulator's model (internal/wsn, env, radio) and the frozen harness.
# knobs is its line count — the number behind "settable values down".
knobs-list:
	@grep -hoE 'fs\.[A-Z][A-Za-z0-9]*\((&[A-Za-z.]+, )?"[a-z-]+"' $$(ls cmd/vn2/*.go | grep -v _test.go) | sed -E 's/.*"([a-z-]+)"$$/flag:\1/'; \
	find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -not -path './internal/wsn/*' -not -path './internal/env/*' -not -path './internal/radio/*' | sort | xargs awk ' \
		/^type (Options|Config|TrainConfig|DiagnoseConfig) struct \{/ { s = 1; next } /^}/ { s = 0 } \
		s && match($$0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) { n = split(substr($$0, RSTART + 1, RLENGTH - 2), f, ", "); for (i = 1; i <= n; i++) print substr(FILENAME, 3) ":" f[i] }'

knobs:
	@$(MAKE) --no-print-directory knobs-list | wc -l

# fuzz smokes the malformed-input decoders: the trace CSV reader, the sink
# report-body decoder, the three mote packet codecs, the batched binary
# frame decoder — each seeded from a committed corpus under testdata/ — and
# the stream's VN2A ack decoder and WAL segment replay (both seeded in
# code; a replay input is a segment file, so each exec writes and fsyncs),
# the delta wire's bit-exact round trip (encoder → frame decoder → sink
# cache), the NNLS solver on degenerate and non-finite problems, the model file
# loader, the snapshot loader with the monitor restore behind it and the
# handoff slice import (all three seeded in code, from a trained model, a
# live sink's snapshot and a driven monitor's exports; their inputs are
# kilobytes of JSON, so minimization is capped or it takes the whole
# budget).
fuzz:
	$(GO) test ./internal/nnls -run '^$$' -fuzz FuzzSolve -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZ_TIME)
	$(GO) test ./vn2 -run '^$$' -fuzz FuzzLoadModel -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x
	$(GO) test ./vn2/sink -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x
	$(GO) test ./vn2/online -run '^$$' -fuzz FuzzImportNodes -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x
	$(GO) test ./vn2/sink/ingest -run '^$$' -fuzz FuzzDecodeReports -fuzztime $(FUZZ_TIME)
	$(GO) test ./vn2/sink/ingest -run '^$$' -fuzz FuzzDeltaRoundTrip -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz 'FuzzC1$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz 'FuzzC2$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz 'FuzzC3$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz 'FuzzFrame$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz 'FuzzStreamResp$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzReplaySegment -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x

# The three chaos targets are one harness (`vn2 chaos`) on different
# parameters: -transport picks how the faulty run is delivered, -shards the
# fleet it is delivered into. Every CLI run prints `digest <transport>/<shards>
# <sha256>`; the tests are rows of one table, TestChaosKillRecoveryExact.
#
# chaos proves the crash-safety contract end to end: a fault-injected run
# (duplication, reordering, delays, wire truncation) with a mid-run kill -9
# and WAL+snapshot recovery must reproduce the fault-free baseline's
# per-epoch diagnoses bit for bit — over JSON and over binary frames.
chaos:
	$(GO) run ./cmd/vn2 chaos -seed 1
	$(GO) run ./cmd/vn2 chaos -seed 1 -transport bin
	$(GO) test ./cmd/vn2 -run 'TestChaos/^(json|bin)-1$$' -count=1 -v

# chaos-stream proves the same contract over the persistent TCP frame
# stream: the production vn2/reporter client under mid-frame cuts, frame
# corruption, a hard partition window (bounded spill + circuit breaker),
# a slowloris probe, and the mid-run kill -9 — recovered diagnoses must
# match the fault-free JSON baseline bit for bit, with zero spill drops.
chaos-stream:
	$(GO) run ./cmd/vn2 chaos -seed 1 -transport stream -partition-epoch 26 -partition-len 6
	$(GO) test ./cmd/vn2 -run 'TestChaosKillRecoveryExact/^stream-1$$' -count=1 -v

# chaos-cluster proves the sharded fleet's contract: k serve shards behind
# the consistent-hash router, the full lossless fault mix on the wire, one
# shard kill -9'd mid-run (the router answers 503 for every batch that
# spans it; the harness's gateway resends in order) and restarted from
# WAL+snapshot, the router itself discarded and rebuilt mid-outage and
# again after recovery — the merged /fleet distributions must be
# bit-identical to a single fault-free sink, with nothing left un-ACKed.
chaos-cluster:
	$(GO) run ./cmd/vn2 chaos -seed 1 -shards 3
	$(GO) run ./cmd/vn2 chaos -seed 1 -shards 3 -transport bin
	$(GO) test ./cmd/vn2 -run 'TestChaosKillRecoveryExact/-3$$' -count=1 -v

# chaos-all runs the three gates and prints only their digest lines, one
# per CLI run, so comparing two commits is a diff of this target's output.
# On any failure it prints the full log instead.
chaos-all:
	@log=$$(mktemp); \
	$(MAKE) --no-print-directory chaos chaos-stream chaos-cluster >$$log 2>&1 || { cat $$log; rm -f $$log; exit 1; }; \
	grep '^digest ' $$log; rm -f $$log

# smoke boots the real sink stack end to end: build fixtures, start the HTTP
# server, post reports, and assert the diagnosis round-trip, backpressure,
# and snapshot restore — plus the drain loop's wakes and the rule under
# them: a report is applied (and diagnosed) only once its WAL record is
# durable — and the monitor's split under that rule: a batch staged (its
# states solved) before the fsync and applied after gives what Ingest gives,
# in any call order, and a swap before the drain still decides the model.
# The first line also pins the report path's memory: a delta frame costs the
# commit point and the ingest loop a fixed few allocations, however many
# reports it carries, and a frame's decode arena is reused only once its
# batch is applied — frames held on the queue apply as if freshly decoded.
# The third line holds the router's half of "the client owns the retry": a
# shard's 503 and its Retry-After come back at once, never slept, one hung
# /readyz probe delays no other shard's re-admission, and a probe's 200
# re-admits only the address it asked.
smoke:
	$(GO) test ./vn2/sink -run 'TestServe|TestNewErrors|TestDrain|TestApplyWaitsForDurability|TestIngestPathAllocs|TestQueuedFramesKeepTheirRecords' -count=1 -v
	$(GO) test ./vn2/online -run 'TestDrainGroupingIndependent|TestSwapBetweenStageAndDrain|TestStagedInAnyOrder' -count=1 -v
	$(GO) test ./vn2/cluster -run 'TestRouterNeverSleeps|TestRouterProbesShardsAtOnce|TestRouterProbeIgnoresRepointedShard' -count=1 -v

# smoke-stream is the visibility-plane smoke: a live /stream (SSE) client
# sees events end to end, Last-Event-ID resume replays exactly the missed
# events, /status answers, and the embedded dashboard serves from the binary.
smoke-stream:
	$(GO) test ./vn2/sink -run 'TestStream' -count=1 -v

# bench runs the micro scaling ladders with -benchmem; the output is
# benchstat-compatible text, and it is the record when someone needs one
# (redirect it). The gate is benchmark/vn2bench through benchpairs below.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem .

# bench-all runs the entire benchmark suite (paper tables, figures,
# ablations).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# benchpairs is the procedure every perf claim is judged by (the
# choosing-metrics guide, section 8): N runs of one vn2bench workload on
# PARENT and on the working tree, alternately — which side goes first
# alternates with the pair, because this host's speed drifts in waves of
# minutes — on seeds 1..N at the driver's window (--seconds 12), then per
# metric both sides' medians and quartiles (linear interpolation), the median ratio, and how many pairs the change won
# (lower wins; ties count for neither). PARENT is extracted with `git archive`
# into .bench_build/parent, whose own build cache is kept between invocations.
# METRICS defaults to BENCHMARK.json's end-to-end set; name per-layer ones to
# judge them the same way:
#   make benchpairs PARENT=HEAD~1 WORKLOAD=storm-json N=10 METRICS="cpu_us_per_report ack_p50_ms"
# A run that exits non-zero, reports a failed operation or lacks `oracle ok`
# in its header line aborts the whole procedure: a gain does not count when
# more operations fail, so a failure is looked into, not averaged.
PARENT   ?= HEAD
WORKLOAD ?= stream-direct
N        ?= 10
METRICS  ?= $(shell sed -n '/"end_to_end"/,/"per_layer"/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json)
PAIRS     = .bench_build/pairs/$(WORKLOAD)

benchpairs:
	@mkdir -p .bench_build/parent && rm -rf $(PAIRS) && mkdir -p $(PAIRS)
	@find .bench_build/parent -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
	git archive $(PARENT) | tar -x -C .bench_build/parent
	@for i in $$(seq 1 $(N)); do \
		order="parent change"; [ $$((i % 2)) -eq 0 ] && order="change parent"; \
		for side in $$order; do \
			root=.; [ $$side = parent ] && root=.bench_build/parent; \
			bash $$root/benchmark/run.sh --workload $(WORKLOAD) --seed $$i --seconds 12 --out $(CURDIR)/$(PAIRS)/$$side-$$i \
				> $(PAIRS)/$$side-$$i.txt || { cat $(PAIRS)/$$side-$$i.txt; exit 1; }; \
			hdr="$$(grep '^== ' $(PAIRS)/$$side-$$i.txt)"; \
			printf 'pair %2d %-6s %s\n' $$i $$side "$$hdr"; \
			case "$$hdr" in *"attempted, 0 failed, oracle ok") ;; *) echo "benchpairs: $$side run of pair $$i has failed operations or no oracle verdict" >&2; exit 1 ;; esac; \
		done; \
	done
	@awk -v metrics="$(METRICS)" -v n=$(N) -v dir=$(PAIRS) ' \
		function q(v, p,    x, lo) { x = (n - 1) * p + 1; lo = int(x); return v[lo] + (x - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) } \
		function sorted(side, m, out,    i, j, t) { \
			for (i = 1; i <= n; i++) out[i] = val[side, m, i] + 0; \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j-1] > out[j]; j--) { t = out[j]; out[j] = out[j-1]; out[j-1] = t } } \
		BEGIN { \
			nm = split(metrics, name, " "); \
			for (i = 1; i <= n; i++) for (s = 1; s <= 2; s++) { \
				side = s == 1 ? "parent" : "change"; file = dir "/" side "-" i ".txt"; \
				while ((getline line < file) > 0) { split(line, f, " "); val[side, f[1], i] = f[2] } \
				close(file) } \
			printf "%-26s %32s %32s %7s %5s\n", "$(WORKLOAD), " n " pairs", "parent  q1 / median / q3", "change  q1 / median / q3", "ratio", "won"; \
			for (k = 1; k <= nm; k++) { m = name[k]; won = 0; \
				for (i = 1; i <= n; i++) won += val["change", m, i] + 0 < val["parent", m, i] + 0; \
				sorted("parent", m, a); sorted("change", m, b); \
				printf "%-26s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %7.3f %2d/%d\n", m, \
					q(a, .25), q(a, .5), q(a, .75), q(b, .25), q(b, .5), q(b, .75), q(a, .5) ? q(b, .5) / q(a, .5) : 0, won, n } }'

# benchsoak is the failure gate on the working tree alone: every workload of
# BENCHMARK.json on seeds 1..N at the driver's window (--seconds 12), one
# line per run — workload, seed, reports attempted, reports failed, oracle,
# setup_s — and a non-zero exit at the first run that fails an operation,
# loses its oracle verdict or does not finish:
#   make benchsoak N=12
SOAK_WORKLOADS ?= $(shell sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json)
SOAK_ARGS      ?= --seconds 12

benchsoak:
	@mkdir -p .bench_build/soak
	@printf '%-14s %4s %9s %6s %-7s %8s\n' workload seed attempted failed oracle setup_s
	@for w in $(SOAK_WORKLOADS); do for i in $$(seq 1 $(N)); do \
		out=.bench_build/soak/$$w-$$i.txt; \
		bash benchmark/run.sh --workload $$w --seed $$i $(SOAK_ARGS) > $$out 2>&1 || { cat $$out; exit 1; }; \
		awk -v w=$$w -v seed=$$i ' \
			/^== / { attempted = $$5; failed = $$8; oracle = /oracle ok$$/ ? "ok" : "MISSING" } \
			$$1 == "setup_s" { setup = $$2 } \
			END { printf "%-14s %4d %9d %6s %-7s %8.4f\n", w, seed, attempted, failed, oracle, setup; exit !(failed == "0" && oracle == "ok") }' $$out || exit 1; \
	done; done

# benchsmoke is benchsoak's rule at a smoke window, and the last step of
# `make check`: every workload once with --smoke --seconds 2 (≈22 s for all
# four on a 2-vCPU host), failing on any failed operation or missing oracle.
benchsmoke:
	@$(MAKE) --no-print-directory benchsoak N=1 SOAK_ARGS="--smoke --seconds 2"
