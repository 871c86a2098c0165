// Command holocleand serves the HoloClean pipeline over HTTP: a
// multi-tenant cleaning service where each session wraps one dataset
// under continuous incremental cleaning (see package serve).
//
//	holocleand -addr :8080 -store-dir /var/lib/holoclean
//
// Quickstart against a running server:
//
//	curl -F data=@dirty.csv -F dcs=@constraints.txt localhost:8080/sessions
//	curl localhost:8080/sessions/s1/review?threshold=0.9
//
// Tuning:
//
//	-max-jobs N      heavy pipeline jobs running concurrently (default 2)
//	-queue-depth N   jobs allowed to wait beyond the running ones; more
//	                 get 429 + Retry-After (default 8)
//	-workers N       shard workers per job (default GOMAXPROCS/max-jobs)
//	-idle-timeout D  evict sessions idle for D to a checkpoint (0
//	                 disables)
//	-store-dir P     session store under P: per-session write-ahead
//	                 logs, fsync'd before any mutating request is
//	                 acknowledged, recovered in full on boot. Empty (the
//	                 default) runs the same store in a fresh temporary
//	                 directory, named in the startup log and removed on
//	                 exit: sessions live as long as the process
//	-checkpoint-every N  ops between checkpoint records (default 16)
//	-pprof ADDR      serve net/http/pprof on a separate listener, e.g.
//	                 -pprof 127.0.0.1:6060 (off by default; never exposed
//	                 on the main service address)
//	-metrics         serve Prometheus-format telemetry at GET /metrics
//	                 (default true): request latency and status classes
//	                 per endpoint, job-queue gauges, per-stage pipeline
//	                 histograms (detect, stats, ground, learn, infer,
//	                 checkpoint), per-tenant reclean latency and
//	                 shard-reuse, WAL append/fsync timings, and
//	                 replication lag. -metrics=false disables the
//	                 subsystem entirely and /metrics answers 404.
//
// Clustering (requires an explicit -store-dir):
//
//	-self URL        this node's advertised base URL, e.g.
//	                 http://10.0.0.1:8080
//	-peers LIST      comma-separated advertised URLs of every node,
//	                 including -self, identical on all nodes. Enables the
//	                 replication tier: sessions are placed on a
//	                 consistent-hash ring, each node streams the WAL of
//	                 sessions it leads to its ring standby (which serves
//	                 reads and can be promoted via
//	                 POST /cluster/promote/{id} after a leader failure),
//	                 and writes landing on a non-leader answer 307 to the
//	                 leader.
//
// On SIGTERM or SIGINT the daemon shuts down gracefully: new heavy jobs
// are refused with 503, in-flight recleans finish and their log appends
// land, every live session is checkpointed to the store, and the
// process exits 0. A hard kill (SIGKILL, power loss) is also safe with
// -store-dir: the next boot replays each session's log tail on top of
// its latest checkpoint, reconstructing the exact acknowledged state.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"holoclean/internal/telemetry"
	"holoclean/serve"
)

// pprofMux builds an explicit mux for the profiling endpoints. The
// handlers are registered here rather than relying on the net/http/pprof
// import's DefaultServeMux side effect, so profiling is reachable only
// through the dedicated -pprof listener — the main service handler never
// routes /debug/pprof, flag or no flag.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "shard worker-pool size per job (0 = fair share of all CPUs)")
		maxJobs     = flag.Int("max-jobs", 2, "max heavy pipeline jobs running concurrently")
		queueDepth  = flag.Int("queue-depth", 8, "max jobs waiting beyond the running ones before 429")
		idleTimeout = flag.Duration("idle-timeout", 15*time.Minute, "evict sessions idle this long (0 = never)")
		storeDir    = flag.String("store-dir", "", "session store directory: per-session write-ahead logs with crash recovery (empty = ephemeral store in a temporary directory, removed on exit)")
		ckptEvery   = flag.Int("checkpoint-every", 16, "ops between checkpoint records in the store")
		maxUpload   = flag.Int64("max-upload", 32<<20, "max request body bytes")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on SIGTERM/SIGINT")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		metricsOn   = flag.Bool("metrics", true, "serve Prometheus telemetry at GET /metrics (false = 404)")
		self        = flag.String("self", "", "this node's advertised base URL in a cluster (e.g. http://10.0.0.1:8080)")
		peers       = flag.String("peers", "", "comma-separated advertised URLs of all cluster nodes, including -self; enables WAL-shipping replication (requires -store-dir)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Bind synchronously so a taken port fails the start instead of
		// the daemon silently running without the profiling the operator
		// explicitly requested (consistent with -store-dir handling).
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("holocleand: pprof listener on %s: %v", *pprofAddr, err)
		}
		go func() {
			log.Printf("holocleand: pprof listening on %s", *pprofAddr)
			if err := http.Serve(ln, pprofMux()); err != nil {
				log.Printf("holocleand: pprof listener failed: %v", err)
			}
		}()
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
	}
	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}
	sv, err := serve.New(serve.Config{
		Workers:           *workers,
		MaxConcurrentJobs: *maxJobs,
		QueueDepth:        *queueDepth,
		IdleTimeout:       *idleTimeout,
		StoreDir:          *storeDir,
		CheckpointEvery:   *ckptEvery,
		MaxUploadBytes:    *maxUpload,
		Self:              strings.TrimRight(*self, "/"),
		Peers:             peerList,
		Telemetry:         reg,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatalf("holocleand: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: sv}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("holocleand: listening on %s (max-jobs %d, queue %d, store %q)", *addr, *maxJobs, *queueDepth, *storeDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		sv.Close()
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("holocleand: %v: draining (refusing new jobs, finishing in-flight work, checkpointing sessions)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		// Drain the service first — new heavy jobs answer 503 while
		// in-flight recleans finish and live sessions checkpoint — then
		// close the listener.
		if err := sv.Shutdown(ctx); err != nil {
			// The store is consistent regardless (appends are durable
			// before their acks); a timeout only means recovery replays
			// a longer tail.
			log.Printf("holocleand: drain incomplete: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("holocleand: http shutdown: %v", err)
		}
		log.Printf("holocleand: shutdown complete")
	}
}
