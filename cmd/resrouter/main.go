// Command resrouter fronts a fleet of resserve replicas behind the
// single-node serving surface: the same HTTP endpoints and the same
// streaming protocol, with responses byte-identical to one replica.
//
//	resrouter -replicas localhost:8081,localhost:8082,localhost:8083
//
// Placement is schema-affinity consistent hashing: all estimates for
// one schema land on one replica, keeping that replica's prediction
// cache and model working set hot. Overload or replica loss spills a
// schema to the next replica on the ring — but only to replicas
// serving the same model versions (compared by store-snapshot
// checksum from each replica's /healthz), so a client never flaps
// between model generations mid-rollout. Admission comes first: past
// -max-inflight fleet-wide, or -max-per-client for one client (keyed
// by X-Client-ID), the router sheds with 503 + Retry-After. An
// admitted repeat with a live entry in the router's version-keyed
// response cache is then answered from it, whatever the replicas'
// health. Everything else is forwarded, spilled or retried; when no
// version-consistent replica is up the router sheds the same way.
//
// Estimates forward over pooled streaming connections to each
// replica's advertised stream listener (falling back to HTTP when a
// replica runs without one); explain requests, batches, /observe and
// model-management calls proxy as plain HTTP. POST /models and
// /models/rollback fan out to every healthy replica and report 409 if
// the change applied only partially.
//
// Endpoints mirror resserve (/estimate, /estimate/batch, /observe,
// /models, /models/rollback), plus:
//
//	GET /healthz   fleet health: per-replica status, store checksums,
//	               and whether the fleet serves one consistent version
//	GET /metrics   router counters (per-replica requests/errors,
//	               routing decisions {affinity,spillover,shed}, cache
//	               hit ratio) as JSON, or Prometheus text with
//	               Accept: text/plain
//
// With -stream-addr the router also accepts the framed streaming
// protocol directly, routing each frame by its request's schema.
//
// On SIGINT/SIGTERM the router drains in-flight HTTP requests, closes
// the stream listener and the replica pools, and exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// config is the parsed command line.
type config struct {
	addr, streamAddr string
	router           cluster.Options
}

// parseFlags parses args (without the program name). Usage and errors
// go to stderr.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("resrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8090", "HTTP listen address")
		streamAddr   = fs.String("stream-addr", "", "streaming listen address: accepts the resserve frame protocol and routes each frame by schema; empty disables")
		replicas     = fs.String("replicas", "", "comma-separated resserve base addresses (host:port or URL); required")
		poll         = fs.Duration("poll", time.Second, "replica health/version poll interval")
		pool         = fs.Int("pool", 2, "pooled streaming connections per replica")
		cacheSize    = fs.Int("cache", 4096, "router response-cache entries, keyed on request body and model-version token (negative disables)")
		maxInflight  = fs.Int("max-inflight", 1024, "fleet-wide in-flight request bound; past it the router sheds with 503 + Retry-After")
		maxPerClient = fs.Int("max-per-client", 256, "per-client in-flight bound, keyed by X-Client-ID (falling back to remote host)")
		maxReplica   = fs.Int("max-replica-inflight", 512, "per-replica overload bound; a primary past it spills its schemas to the next same-version replica on the ring")
		reqTimeout   = fs.Duration("timeout", 30*time.Second, "per-forwarded-request deadline")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	fleet := splitList(*replicas)
	if len(fleet) == 0 {
		err := errors.New("-replicas is required (comma-separated resserve addresses)")
		fmt.Fprintln(stderr, "resrouter:", err)
		return config{}, err
	}
	return config{addr: *addr, streamAddr: *streamAddr, router: cluster.Options{
		Replicas:           fleet,
		PoolSize:           *pool,
		PollInterval:       *poll,
		RequestTimeout:     *reqTimeout,
		MaxInflight:        *maxInflight,
		MaxPerClient:       *maxPerClient,
		MaxReplicaInflight: *maxReplica,
		CacheEntries:       *cacheSize,
	}}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "resrouter:", err)
		os.Exit(1)
	}
}

// run serves until a signal arrives on stop, then drains and tears
// down. ready, when non-nil, is told the bound HTTP and stream
// addresses once both listeners are up.
func run(cfg config, stop <-chan os.Signal, ready func(httpAddr, streamAddr string)) error {
	cfg.router.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	rt, err := cluster.New(cfg.router)
	if err != nil {
		return err
	}
	// Tears down the stream listener, the health poller and the
	// per-replica connection pools; idempotent, so the error returns
	// below share it with the orderly close after HTTP drains.
	defer rt.Close()
	fleet := cfg.router.Replicas
	fmt.Fprintf(os.Stderr, "resrouter: fronting %d replicas: %s\n", len(fleet), strings.Join(fleet, ", "))

	streamAddr := ""
	if cfg.streamAddr != "" {
		if streamAddr, err = rt.StartStream(cfg.streamAddr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "resrouter: streaming listener on %s\n", streamAddr)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(rt.Handler())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-stop
		fmt.Fprintf(os.Stderr, "resrouter: %s received, draining\n", s)
		if err := serve.DrainHTTP(srv, 10*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "resrouter: drain deadline expired (%v); connections force-closed\n", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "resrouter: listening on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String(), streamAddr)
	}
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-drained
	rt.Close()
	fmt.Fprintln(os.Stderr, "resrouter: shutdown complete")
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
