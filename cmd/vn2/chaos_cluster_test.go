package main

import (
	"testing"
)

func chaosClusterTestOptions(dir string) chaosOptions {
	o := chaosTestOptions(dir)
	o.cluster = true
	o.clusterShards = 3
	return o
}

// TestChaosCluster is the acceptance test of the sharded fleet: the full
// lossless fault mix flows through the consistent-hash router into three
// WAL-backed shards, one shard is kill -9'd mid-run (the router answers 503
// for every batch that spans it and the gateway resends in order) and
// restarted from WAL + snapshot, the router itself is discarded and rebuilt
// during the outage and again after it, and the merged /fleet per-epoch
// cause distributions must be BIT-IDENTICAL to a single fault-free,
// kill-free sink fed every node. driveClusterRun fails unless the gateway's
// pending list is empty at the end (zero report loss).
func TestChaosCluster(t *testing.T) {
	res, err := runChaosCluster(chaosClusterTestOptions(t.TempDir()), t.Logf)
	if err != nil {
		t.Fatalf("runChaosCluster: %v", err)
	}
	if res.Resent == 0 || res.RouterRestarts != 2 {
		t.Fatalf("outage not exercised: %d deliveries resent, %d router restarts", res.Resent, res.RouterRestarts)
	}
	if !res.Exact || res.MaxDeviation != 0 {
		t.Fatalf("sharded fleet must merge exactly: exact=%v deviation=%g", res.Exact, res.MaxDeviation)
	}
	st := res.Transport
	if st.Dropped != 0 || st.Duplicated == 0 || st.Delayed == 0 || st.Truncated == 0 {
		t.Fatalf("fault mix did not exercise the wire: %+v", st)
	}
	if len(res.FleetCauses) == 0 {
		t.Fatal("fleet view diagnosed nothing — the harness is vacuous")
	}

	// Determinism: the whole experiment — ring split, faults, kill,
	// failover, merge — reproduces bit for bit under the same seed.
	res2, err := runChaosCluster(chaosClusterTestOptions(t.TempDir()), t.Logf)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("reruns diverged: %s vs %s", res.Digest, res2.Digest)
	}
	if res2.KilledShard != res.KilledShard {
		t.Fatalf("kill target diverged across reruns: %d vs %d", res.KilledShard, res2.KilledShard)
	}
}

// TestChaosClusterBinary runs the same fleet experiment over the batched
// binary /report/bin path: the router terminates the client's delta
// encoding and re-encodes full per-shard frames, so exactness also proves
// the re-encode is lossless — and that a replaced router's empty delta
// cache (400 "resend full" on the client's next delta frame) costs nothing.
func TestChaosClusterBinary(t *testing.T) {
	o := chaosClusterTestOptions(t.TempDir())
	o.bin = true
	res, err := runChaosCluster(o, t.Logf)
	if err != nil {
		t.Fatalf("runChaosCluster: %v", err)
	}
	if res.Resent == 0 || res.RouterRestarts != 2 {
		t.Fatalf("outage not exercised: %d deliveries resent, %d router restarts", res.Resent, res.RouterRestarts)
	}
	if !res.Exact || res.MaxDeviation != 0 {
		t.Fatalf("binary fleet must merge exactly: exact=%v deviation=%g", res.Exact, res.MaxDeviation)
	}
}
