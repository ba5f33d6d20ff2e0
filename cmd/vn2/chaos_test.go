package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/wsn-tools/vn2/internal/chaos"
)

// chaosTestOptions is the e2e configuration: the full lossless fault mix,
// a mid-run kill -9, and the standard testbed workload, delivered over the
// given transport into a fleet of the given size.
func chaosTestOptions(dir, transport string, shards int) chaosOptions {
	o := chaosOptions{
		wire:      chaos.Config{Seed: 11, Duplicate: 0.15, Delay: 0.25, Truncate: 0.1, Shuffle: true},
		transport: transport,
		shards:    shards,
		killAfter: 20,
		dir:       dir,
	}
	if transport == "stream" {
		o.conn = chaos.StreamFaults{Corrupt: 0.15, PartitionAt: 26, PartitionLen: 6}
	}
	return o
}

// TestChaosKillRecoveryExact is the acceptance test of the crash-safe
// ingest stack, one row per (transport, fleet size) the harness can run.
// Every row streams a simulated deployment through the chaos wire
// (duplication, cross-node reordering, delays, wire truncation — all
// lossless), kill -9s a sink mid-run with ACKed reports still queued,
// restarts it from WAL + snapshot, and requires what the fleet then serves
// to be BIT-IDENTICAL to a fault-free, kill-free single JSON sink.
//
//   - json/1: the baseline claim, per-node epoch contributions compared.
//   - bin/1: delta-encoded /report/bin frames against the JSON baseline, so
//     exactness also proves cross-encoding equivalence and that the
//     client's deltas continue against the replay-primed cache.
//   - stream/1: the production vn2/reporter over a real TCP connection with
//     mid-frame cuts, CRC-caught corruption, a 6-step partition (bounded
//     spill, breaker trip) and a slowloris probe on top; drive itself
//     rejects a run whose spill queue dropped or exceeded its bound.
//   - json/3, bin/3: three shards behind the router, one killed (the router
//     answers 503 for every batch that spans it; the gateway resends in
//     order), the router discarded and rebuilt during the outage and after
//     it; the router's own /fleet merge is compared against MergeEpochs of
//     the baseline, and drive fails unless the gateway's pending list ends
//     empty. bin/3 also proves the router's record-boundary split lossless
//     and a replaced router invisible to the client's delta stream.
//
// Each row's digest is also pinned to a committed constant, so a change that
// moves what a recovered fleet serves (the solver, the model, the merge)
// fails here rather than only in a hand comparison of `make chaos-all`. The
// test's fault mix is not the CLI's, so these are not that target's digests.
func TestChaosKillRecoveryExact(t *testing.T) {
	const (
		oneSink   = "fb57afb14e02591e4ec26600bcaf9de6c893009b267f8760ba424f83d6035cdc"
		threeSink = "7963190b7016452cad1979ec66bf94bc05e770c5a26f760fa85efe76b3b260c0"
	)
	for _, tc := range []struct {
		transport string
		shards    int
		digest    string
	}{
		{"json", 1, oneSink}, {"bin", 1, oneSink}, {"stream", 1, oneSink},
		{"json", 3, threeSink}, {"bin", 3, threeSink},
	} {
		t.Run(fmt.Sprintf("%s-%d", tc.transport, tc.shards), func(t *testing.T) {
			res, err := runChaos(chaosTestOptions(t.TempDir(), tc.transport, tc.shards), t.Logf)
			if err != nil {
				t.Fatalf("runChaos: %v", err)
			}
			if !res.Exact || res.MaxDeviation != 0 {
				t.Fatalf("lossless faults + kill must recover exactly: exact=%v deviation=%g",
					res.Exact, res.MaxDeviation)
			}
			if res.Digest != tc.digest {
				t.Fatalf("digest %s, committed %s: if the change is meant to move diagnoses, re-pin it here, "+
					"regenerate experiments_full.txt with `make experiments` and record `make chaos-all`'s digests",
					res.Digest, tc.digest)
			}
			st := res.Transport
			if st.Dropped != 0 || st.Duplicated == 0 || st.Delayed == 0 || st.Truncated == 0 {
				t.Fatalf("fault mix did not exercise the wire: %+v", st)
			}
			if st.Delivered <= st.Offered {
				t.Fatalf("duplication should deliver more than offered: %+v", st)
			}
			if len(res.Recovered.Causes) == 0 {
				t.Fatal("recovered run diagnosed nothing — the harness is vacuous")
			}
			if tc.shards == 1 {
				if len(res.Recovered.Epochs) == 0 || len(res.Recovered.Epochs[0].Contribs) == 0 {
					t.Fatal("recovered sink exported no per-node contributions — the per-node oracle is vacuous")
				}
				if res.Resent != 0 || res.RouterRestarts != 0 {
					t.Fatalf("one sink has no router to refuse or restart: %d resent, %d router restarts", res.Resent, res.RouterRestarts)
				}
			} else if res.Resent == 0 || res.RouterRestarts != 2 {
				t.Fatalf("outage not exercised: %d deliveries resent, %d router restarts", res.Resent, res.RouterRestarts)
			}

			if (res.Reporter != nil) != (tc.transport == "stream") {
				t.Fatalf("reporter stats present=%v on the %s transport", res.Reporter != nil, tc.transport)
			}
			if res.Reporter != nil {
				rs := *res.Reporter
				if rs.SpillDrops != 0 {
					t.Fatalf("spill queue dropped %d reports", rs.SpillDrops)
				}
				if rs.SpillHighWater == 0 {
					t.Fatal("spill high water 0: the partition never backed anything up — the fault plan is vacuous")
				}
				if rs.BreakerTrips == 0 {
					t.Fatal("the 6-step partition never tripped the circuit breaker")
				}
				if rs.Nacks == 0 {
					t.Fatal("corruption probability 0.15 produced no NACKs — the CRC path went unexercised")
				}
				if rs.Retries == 0 {
					t.Fatal("connection faults produced no retries")
				}
				if rs.Redials < 3 {
					t.Fatalf("redials %d, want ≥ 3 (initial + partition heal + kill restart)", rs.Redials)
				}
			}

			// Determinism: rerunning the whole experiment — ring split,
			// faults, partition, kill, failover, recovery, merge — with the
			// same seed reproduces the digest and the kill target.
			res2, err := runChaos(chaosTestOptions(t.TempDir(), tc.transport, tc.shards), t.Logf)
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			if res2.Digest != res.Digest {
				t.Fatalf("reruns diverged: %s vs %s", res.Digest, res2.Digest)
			}
			if res2.KilledShard != res.KilledShard {
				t.Fatalf("kill target diverged across reruns: %d vs %d", res.KilledShard, res2.KilledShard)
			}
		})
	}
}

// TestChaosDropsWithinTolerance: with real losses, exactness is impossible
// by construction; the recovered distributions must still be the baseline's
// within the documented per-epoch relative L1 tolerance, and deterministic.
func TestChaosDropsWithinTolerance(t *testing.T) {
	o := chaosTestOptions(t.TempDir(), "json", 1)
	o.wire.Drop = 0.05
	o.tolerance = 0.5
	res, err := runChaos(o, t.Logf)
	if err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	if res.Transport.Dropped == 0 {
		t.Fatalf("drop=0.05 dropped nothing: %+v", res.Transport)
	}
	if res.Exact {
		t.Log("note: all dropped reports were diagnosis-neutral this seed")
	}
	if res.MaxDeviation > o.tolerance {
		t.Fatalf("deviation %.4f exceeds tolerance %.4f", res.MaxDeviation, o.tolerance)
	}
}

// TestChaosFlags pins the harness's option surface: transport and topology
// are the two parameters -transport and -shards, the three mode booleans
// they replaced are gone (not aliased), and the one combination the runner
// cannot serve is refused with its reason before any work starts.
func TestChaosFlags(t *testing.T) {
	// The flag package prints usage to os.Stderr; capture it for the -h case.
	stderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	gone := map[string]error{}
	for _, name := range []string{"-bin", "-stream", "-cluster"} {
		gone[name] = run([]string{"chaos", name})
	}
	helpErr := run([]string{"chaos", "-h"})
	os.Stderr = stderr
	pw.Close()
	out, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}

	for name, err := range gone {
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("chaos %s: err = %v, want an unknown-flag error", name, err)
		}
	}
	if !errors.Is(helpErr, flag.ErrHelp) {
		t.Errorf("chaos -h: err = %v, want flag.ErrHelp", helpErr)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			listed[strings.Fields(name)[0]] = true
		}
	}
	for _, name := range []string{"transport", "shards"} {
		if !listed[name] {
			t.Errorf("chaos -h does not list -%s (got %v)", name, listed)
		}
	}
	for _, name := range []string{"bin", "stream", "cluster"} {
		if listed[name] {
			t.Errorf("chaos -h still lists -%s", name)
		}
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"chaos", "-transport", "udp"}, "-transport must be json, bin or stream"},
		{[]string{"chaos", "-transport", ""}, "-transport must be json, bin or stream"},
		{[]string{"chaos", "-transport", "stream", "-shards", "3"}, "the router fronts the HTTP edge only"},
		{[]string{"chaos", "-shards", "0"}, "-shards must be >= 1"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
