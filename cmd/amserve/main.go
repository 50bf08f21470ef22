// Command amserve runs the differentially private release engine: analysts
// POST a workload to /design once (repeated specs hit the strategy cache),
// upload histograms to /datasets once with an optional privacy budget cap,
// then request releases one at a time from /answer or in concurrent batches
// from /release. The server tracks and *enforces* privacy spend per dataset
// — a release that would exceed a dataset's cap is refused with HTTP 429
// and the remaining budget. Unseeded releases draw crypto-seeded noise;
// "seed" pins a reproducible stream for inline ad-hoc histograms only.
// Releases against registered datasets refuse pinned seeds (a known seed
// lets the requester subtract the noise and recover the exact data);
// -allow-seeded-releases re-enables them on single-user debug servers.
//
// With -store the server persists designed plans to a durable plan store
// and rehydrates its strategy cache from it on startup, so a restart
// serves previously designed workloads from cache instead of
// re-designing them. GET /plans lists the stored plans; DELETE
// /plans/{id} withdraws one from future restarts. Plans designed offline
// with amdesign -save can be dropped into the store directory.
//
// -pprof-addr starts net/http/pprof on a separate listener (off by
// default, never on the serving address), for profiling a live server.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight releases are
// drained and the plan-store write-behind queue is flushed before exit.
//
//	amserve -addr :8080 -store /var/lib/amserve/plans
//	curl -X POST localhost:8080/design   -d '{"workload":"allrange:8x16"}'
//	curl -X POST localhost:8080/datasets -d '{"name":"db","histogram":[...],
//	     "cap":{"epsilon":2,"delta":1e-3}}'
//	curl -X POST localhost:8080/answer   -d '{"strategy":"s1","dataset":"db",
//	     "epsilon":0.5,"delta":1e-4}'
//	curl -X POST localhost:8080/release  -d '{"releases":[
//	     {"strategy":"s1","dataset":"db","epsilon":0.1,"delta":1e-5},
//	     {"strategy":"s1","dataset":"db","epsilon":0.1,"delta":1e-5}],
//	     "parallelism":8}'
//	curl localhost:8080/datasets         # cells, cap, spent, remaining
//	curl localhost:8080/ledger           # committed spend per dataset
//	curl localhost:8080/plans            # durable plan-store entries
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

	"adaptivemm/internal/server"
)

// shutdownGrace bounds how long a draining server waits for in-flight
// releases before exiting anyway.
const shutdownGrace = 30 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "",
		"plan-store directory: persist designed plans and rehydrate the strategy cache on startup (empty = memory only)")
	storeQuota := flag.Int64("store-quota", 0,
		"plan-store byte budget: past it, least-recently-served plans are evicted (0 = unlimited; requires -store)")
	maxStreams := flag.Int("max-streams", 0,
		"max concurrent streamed releases (0 = server default); excess streams get 503 + Retry-After")
	allowSeeded := flag.Bool("allow-seeded-releases", false,
		"DEBUG ONLY: honor client-pinned noise seeds on registered datasets (lets the requester reconstruct the noise and defeat the privacy budget)")
	pprofAddr := flag.String("pprof-addr", "",
		"optional separate listen address for net/http/pprof profiling endpoints (empty = disabled; never exposed on the serving listener)")
	metricsAddr := flag.String("metrics-addr", "",
		"optional separate listen address for the observability surface (/metrics and /debug/traces); both are always served on the main address too")
	flag.Parse()

	if *storeQuota > 0 && *storeDir == "" {
		log.Fatal("-store-quota requires -store")
	}
	srv, err := server.Open(server.Options{
		AllowSeededReleases:  *allowSeeded,
		StoreDir:             *storeDir,
		StoreQuotaBytes:      *storeQuota,
		MaxConcurrentStreams: *maxStreams,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *allowSeeded {
		log.Printf("WARNING: seeded releases enabled; registered-dataset privacy budgets are NOT enforceable against the seeding client")
	}
	if *storeDir != "" {
		if *storeQuota > 0 {
			log.Printf("amserve plan store at %s (quota %d bytes, LRU eviction)", *storeDir, *storeQuota)
		} else {
			log.Printf("amserve plan store at %s", *storeDir)
		}
	}

	// Profiling runs on its own listener so the endpoints can be bound to
	// localhost (or firewalled) independently of the serving address, and
	// are never reachable through the API surface. The default net/http
	// mux would register pprof globally; an explicit mux keeps the
	// exposure opt-in per route.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("amserve pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("amserve: pprof listener: %v", err)
			}
		}()
	}

	// Like pprof, the metrics side listener lets operators scrape a
	// server whose main port sits behind stricter network policy. The
	// main handler serves the same endpoints regardless.
	if *metricsAddr != "" {
		mh := srv.MetricsHandler()
		go func() {
			log.Printf("amserve metrics listening on %s", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mh); err != nil {
				log.Printf("amserve: metrics listener: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("amserve listening on %s", *addr)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		// Listener failed outright; still flush whatever was queued.
		if cerr := srv.Close(); cerr != nil {
			log.Printf("amserve: flushing plan store: %v", cerr)
		}
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("amserve shutting down: draining in-flight releases (up to %s)", shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("amserve: shutdown: %v", err)
	}
	// In-flight requests are done (or timed out): flush the plan-store
	// write-behind queue.
	if err := srv.Close(); err != nil {
		log.Printf("amserve: closing plan store: %v", err)
	}
	log.Printf("amserve stopped")
}
