package main

// The serve subcommand is a thin shell over vn2/sink: parse flags into
// sink.Options, build the server, run until signaled. All sink behavior —
// ingest, WAL, snapshots, lifecycle, degraded mode, the event bus and the
// visibility plane — lives in vn2/sink and its sub-packages.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/wsn-tools/vn2/vn2/sink"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var o sink.Options
	fs.StringVar(&o.Addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&o.ModelPath, "model", "", "model JSON path (required unless -snapshot holds one)")
	fs.StringVar(&o.CalibratePath, "calibrate", "", "trace CSV whose last report per node primes the monitor (required unless -snapshot holds a detector); the detector comes from the model's training window, not from this trace, unless the model was saved without its calibration")
	fs.StringVar(&o.SnapshotPath, "snapshot", "", "snapshot file: loaded at startup when present, rewritten periodically")
	fs.StringVar(&o.WALPath, "wal", "", "write-ahead log directory: accepted reports are journaled before the 202 and replayed on restart (empty = no WAL)")
	fs.Float64Var(&o.Threshold, "threshold", 0, "exception cutoff eps/max(eps) (0 = paper's 0.01)")
	fs.IntVar(&o.QueueSize, "queue", sink.DefaultQueueSize, "ingest queue bound, in reports: a bound, paid for as used; a batch it has no room for gets 503")
	fs.IntVar(&o.MaxPending, "max-pending", 0, "bound on flagged states awaiting diagnosis (0 = 4096)")
	fs.IntVar(&o.Workers, "workers", 0, "drain NNLS goroutines (0 = all cores); results identical for any value")
	fs.DurationVar(&o.DrainEvery, "drain-interval", sink.DefaultDrainEvery, "idle upper bound of the diagnosis pass (a flagged state wakes it within milliseconds) and clock of the lifecycle/degraded probes")
	fs.DurationVar(&o.SnapshotEvery, "snapshot-interval", sink.DefaultSnapshotEvery, "how often the snapshot file is rewritten")
	fs.StringVar(&o.Lifecycle.ModelsDir, "models", "", "directory for persisted model generations (required with -lifecycle)")
	fs.BoolVar(&o.Lifecycle.Enabled, "lifecycle", false, "enable the self-healing model lifecycle: drift-triggered shadow retrain, validated hot-swap, rollback")
	fs.IntVar(&o.Lifecycle.DriftMin, "drift-min", 0, "diagnosed states the drift window must hold before the trigger can fire (0 = 32)")
	fs.DurationVar(&o.Lifecycle.RetrainTimeout, "retrain-timeout", 0, "shadow retrain deadline (0 = 2m)")
	fs.IntVar(&o.Lifecycle.Probation, "probation", 0, "post-swap diagnosed states before the swap commits or rolls back (0 = 32)")
	fs.IntVar(&o.StreamBuffer, "stream-buffer", 0, "per-/stream-subscriber event buffer: a bound, paid for as used; slow consumers drop oldest (0 = 64)")
	fs.StringVar(&o.StreamAddr, "stream-addr", "", "persistent frame-stream listen address (raw TCP, VN2F frames with per-frame ACK/NACK); empty = HTTP ingest only")
	fs.IntVar(&o.StreamMaxConns, "stream-conns", 0, "stream connection cap; excess connections are refused with a NACK (0 = 64)")
	fs.DurationVar(&o.StreamReadTimeout, "stream-read-timeout", 0, "per-frame stream read deadline; slow or stalled peers are disconnected (0 = 30s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.Lifecycle.Enabled && o.Lifecycle.ModelsDir == "" {
		return fmt.Errorf("serve: -lifecycle requires -models")
	}
	srv, err := sink.New(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx)
}
