package main

// The router subcommand is the cluster front door: a thin shell over
// vn2/cluster.Router. It owns no state a crash can lose — only the
// consistent-hash ring, per-shard readiness, and the merged /fleet view.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/wsn-tools/vn2/vn2/cluster"
	"github.com/wsn-tools/vn2/vn2/sink/api"
)

func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8079", "listen address")
	shards := fs.String("shards", "", "comma-separated shard base URLs, index-aligned with the ring (required)")
	seed := fs.Uint64("seed", 1, "ring seed; every router of a cluster must share it")
	probe := fs.Duration("probe-interval", 0, "shard /readyz probe cadence (0 = 1s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("router: -shards is required (comma-separated base URLs)")
	}

	r, err := cluster.NewRouter(cluster.Config{
		Shards:        urls,
		Seed:          *seed,
		ProbeInterval: *probe,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go r.Run(ctx)

	httpSrv := api.NewServer(r.Handler())
	httpSrv.Addr = *addr
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vn2 router: listening on %s, %d shards (seed %d)\n", *addr, len(urls), *seed)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "vn2 router: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
