// Command codecompd serves compressed-ROM images over HTTP: upload a
// marshaled SAMC/SADC/Huffman/rANS/tiered image once, then fetch
// decompressed cache blocks at random access, exactly as an embedded
// refill engine would — but concurrently, behind a sharded
// decompression cache with prefetch (internal/romserver).
//
// codecompd is one cluster.Node with flags and an http.Server around
// it: the routes, their status codes and headers are the node's, listed
// at the top of internal/cluster/nodehttp.go. A codecompd is therefore
// also a full cluster member a codecomprouter can proxy to.
//
// Profiling: -enable-pprof mounts net/http/pprof under /debug/pprof/
// in front of the node's routes (off by default; the heap and CPU
// profiles expose internals).
//
// Example:
//
//	codecompd -addr :8077 &
//	codecomp -alg samc -in prog.bin -save prog.samc
//	curl --data-binary @prog.samc 'localhost:8077/images?name=prog'
//	curl localhost:8077/images/prog/blocks/7
//	curl -X POST localhost:8077/images/prog/train
//	curl -X PUT 'localhost:8077/images/prog/policy?policy=markov'
//	curl localhost:8077/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"codecomp/internal/cluster"
	"codecomp/internal/obsv"
	"codecomp/internal/overload"
	"codecomp/internal/romserver"
)

// config is codecompd's parsed command line: the node it serves and the
// http.Server around it.
type config struct {
	addr                                   string
	readTimeout, writeTimeout, idleTimeout time.Duration
	enablePprof                            bool
	node                                   cluster.NodeOptions
}

// parseFlags maps the command line onto a config.
func parseFlags(args []string, errorHandling flag.ErrorHandling) (config, error) {
	var cfg config
	var so romserver.Options
	fs := flag.NewFlagSet("codecompd", errorHandling)
	fs.StringVar(&cfg.addr, "addr", ":8077", "listen address")
	fs.IntVar(&so.CacheBlocks, "cache-blocks", 8192, "decompressed-block cache capacity")
	fs.IntVar(&so.CacheShards, "cache-shards", 16, "cache shard count")
	fs.IntVar(&so.Workers, "workers", 8, "decompression worker pool size")
	fs.IntVar(&so.QueueDepth, "queue", 0, "pool queue depth (0 = 4x workers)")
	fs.IntVar(&so.PrefetchDepth, "prefetch", 4, "blocks warmed after a demand miss (-1 disables)")
	fs.IntVar(&so.TraceBuffer, "trace-buffer", 65536, "per-image access-trace ring size (-1 disables recording)")
	fs.Int64Var(&cfg.node.MaxImageBytes, "max-image-bytes", 64<<20, "largest accepted upload")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 30*time.Second, "HTTP server read timeout")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 2*time.Minute, "HTTP server write timeout")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	fs.DurationVar(&so.LoadTimeout, "load-timeout", 5*time.Second, "per-block decompression deadline (0 disables)")
	fs.IntVar(&so.LoadAttempts, "retries", 3, "decompression attempts per block before failing the read")
	fs.DurationVar(&so.ReverifyInterval, "reverify", 2*time.Second, "background re-verify interval for unhealthy images (0 disables)")
	fs.BoolVar(&cfg.node.FaultsAllowed, "enable-fault-injection", false, "allow PUT /images/{name}/faults (chaos testing)")
	fs.BoolVar(&cfg.enablePprof, "enable-pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceRing := fs.Int("trace-ring", 256, "how many completed block-load traces /debug/traces keeps")
	traceSample := fs.Int("trace-sample", 16, "trace one block load in N (1 traces every load)")
	fs.StringVar(&cfg.node.DataDir, "data-dir", "", "persist registered images here and recover them on boot (empty disables)")
	enableOverload := fs.Bool("overload", true, "adaptive admission control, retry budgets and brownout shedding (internal/overload)")
	tieringInterval := fs.Duration("tiering-interval", 10*time.Second, "background recompression pass period for tiered images (0 disables)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	// Flags say "0 disables" where romserver reads zero as "default" and
	// a negative value as "disabled".
	for _, d := range []*time.Duration{&so.LoadTimeout, &so.ReverifyInterval, tieringInterval} {
		if *d <= 0 {
			*d = -1
		}
	}
	so.Tracer = obsv.NewTracer(*traceRing, *traceSample)
	if *enableOverload {
		so.Overload = &overload.Config{}
	}
	so.Tiering = &romserver.TieringOptions{Interval: *tieringInterval}
	cfg.node.Name = "codecompd"
	cfg.node.Server = so
	return cfg, nil
}

// handler is the node's API, behind an outer mux that adds
// net/http/pprof when enabled.
func handler(n *cluster.Node, enablePprof bool) http.Handler {
	if !enablePprof {
		return n.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", n.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	cfg, _ := parseFlags(os.Args[1:], flag.ExitOnError)
	node, err := cluster.NewNode(cfg.node)
	if err != nil {
		log.Fatalf("codecompd: %v", err)
	}

	srv := &http.Server{
		Addr:         cfg.addr,
		Handler:      handler(node, cfg.enablePprof),
		ReadTimeout:  cfg.readTimeout,
		WriteTimeout: cfg.writeTimeout,
		IdleTimeout:  cfg.idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("codecompd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck — best-effort drain
	}()

	so := cfg.node.Server
	log.Printf("codecompd: serving on %s (cache %d blocks / %d shards, %d workers, prefetch %d)",
		cfg.addr, so.CacheBlocks, so.CacheShards, so.Workers, so.PrefetchDepth)
	if cfg.node.FaultsAllowed {
		log.Printf("codecompd: FAULT INJECTION ENABLED — do not run in production")
	}
	if cfg.enablePprof {
		log.Printf("codecompd: pprof enabled on /debug/pprof/")
	}
	err = srv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("codecompd: %v", err)
	}
	// HTTP listener is down; drain the decompression pool.
	node.Close()
}
