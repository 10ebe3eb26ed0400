// Command autoarchd is the tuning service: the paper's automatic
// reconfiguration technique behind an HTTP/JSON API. Clients POST tuning
// jobs; a bounded worker scheduler maps each onto a core.Request and
// runs it through one shared core.Session — one bounded measurement
// cache (optionally spilled to a persistent on-disk store) plus a
// shared model layer, so jobs differing only in objective weights reuse
// one model build outright. Results are the same core.Report documents
// `autoarch -json` prints. Jobs with "phases": true run phase-aware
// tuning instead and return the report's phases block (`autoarch
// -phases -json`); every running job streams per-measurement progress
// through its ndjson status.
//
// The daemon is deployable as a long-lived, multi-replica service:
// identical in-flight jobs coalesce onto one execution, terminal jobs
// are retained only up to -job-retain / -job-ttl, the on-disk store is
// garbage-collected to -store-max-bytes / -store-max-age, and several
// replicas may share one -cache-dir (writes are atomic, corrupt entries
// are read-repaired, a store-version manifest keeps mixed fleets from
// clobbering each other, and -store-lease dedupes concurrent
// simulations of one key across replicas with a TTL claim file). With
// -model-dir, completed model sets additionally spill to durable
// artifacts, so a restarted or sibling replica serves a previously
// modeled application without a single simulation or model rebuild.
// See DESIGN.md §14-§15, §18.
//
// The daemon also scales out actively as a distributed measurement
// fabric (DESIGN.md §21). With -fabric it is a coordinator: workers
// announce themselves with heartbeat registrations, each measurement is
// dispatched to the live worker that consistent-hashing elects for its
// configuration (so one configuration's results always land on the
// same worker's store), and an unreachable fleet degrades — counted,
// never silently — to local simulation. With -worker (or -coordinator)
// it serves measurement RPCs through its own cache/store stack under
// -measure-concurrency; -coordinator=URL additionally heartbeats its
// registration there every -heartbeat. POST /v1/batch submits an
// app × space × weighting matrix as one flight (one model build, N
// solves), and jobs carry a scheduling class: interactive jobs always
// run before bulk sweeps, each class admitted under its own queue
// depth (-queue / -bulk-queue).
//
// Usage:
//
//	autoarchd [-addr :8723] [-jobs 2] [-queue 256] [-bulk-queue 256]
//	          [-cache-entries 4096] [-model-cache 128] [-cache-dir DIR]
//	          [-model-dir DIR] [-job-retain 1024] [-job-ttl 0]
//	          [-store-max-bytes 0] [-store-max-age 0] [-store-gc-every 64]
//	          [-store-lease 0] [-engine-pool N] [-mem-pool N]
//	          [-pprof] [-slow-job 1m]
//	autoarchd -fabric [-fabric-timeout 5m] [-fabric-retries 2] ...
//	autoarchd -worker -coordinator http://head:8723 [-advertise URL]
//	          [-worker-id ID] [-heartbeat 5s] [-measure-concurrency N] ...
//
// Endpoints: POST/GET /v1/jobs, POST /v1/batch, GET /v1/jobs/{id}, GET
// /v1/jobs/{id}/stream (ndjson), DELETE /v1/jobs/{id}, GET
// /v1/trace/{id}, GET /v1/trace/{id}/stream (ndjson), GET /v1/metrics,
// GET /v1/healthz; plus POST/GET /v1/workers on a coordinator and
// POST /v1/measure on a worker.
//
// Every job is traced: GET /v1/trace/{id} returns its pipeline span
// tree (model source, per-measurement cache outcomes, solver effort),
// /v1/metrics carries per-stage latency histograms, jobs slower than
// -slow-job log a warning naming their slowest stages, and -pprof
// exposes net/http/pprof under /debug/pprof/ on the same listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"liquidarch/internal/core"
	"liquidarch/internal/fabric"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8723", "listen address")
		jobs          = flag.Int("jobs", 2, "concurrently running tuning jobs")
		queueDepth    = flag.Int("queue", 256, "submitted-job backlog bound")
		cacheEntries  = flag.Int("cache-entries", measure.DefaultCacheEntries, "bounded measurement-cache entry cap")
		modelCache    = flag.Int("model-cache", core.DefaultModelCacheEntries, "shared model-layer entry cap (model builds reused across weightings)")
		cacheDir      = flag.String("cache-dir", "", "persist measurement reports to this directory (empty = in-memory only; shareable across replicas)")
		modelDir      = flag.String("model-dir", "", "spill built model sets to durable artifacts in this directory and load them on model-cache misses (empty = in-memory model layer only; shareable across replicas)")
		jobRetain     = flag.Int("job-retain", serve.DefaultRetainJobs, "terminal jobs kept in the job table (0 = default, -1 = unlimited, minimum cap 1)")
		jobTTL        = flag.Duration("job-ttl", 0, "drop terminal jobs older than this (0 = no age bound)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "GC the -cache-dir store down to this many bytes (0 = unbounded)")
		storeMaxAge   = flag.Duration("store-max-age", 0, "GC -cache-dir entries not used within this window (0 = no age bound)")
		storeGCEvery  = flag.Int("store-gc-every", measure.DefaultGCEvery, "run a store GC sweep every N spills")
		storeLease    = flag.Duration("store-lease", 0, "cross-replica measurement claim TTL for the shared -cache-dir (0 = off)")
		enginePool    = flag.Int("engine-pool", 0, "platform engine pool size (0 = default)")
		memPool       = flag.Int("mem-pool", 0, "platform loaded-memory pool size (0 = default)")
		pprofOn       = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the service listener")
		slowJob       = flag.Duration("slow-job", time.Minute, "log a warning for jobs slower than this, with their slowest pipeline stages (0 = off)")

		bulkQueue     = flag.Int("bulk-queue", 0, "bulk-class job backlog bound (0 = same as -queue); interactive and bulk admissions are independent")
		fabricOn      = flag.Bool("fabric", false, "coordinator mode: shard measurements across heartbeat-registered remote workers (POST/GET /v1/workers), falling back to local simulation when the fleet cannot answer")
		fabricTimeout = flag.Duration("fabric-timeout", fabric.DefaultRPCTimeout, "per-attempt measurement RPC timeout")
		fabricRetries = flag.Int("fabric-retries", 2, "extra RPC attempts on the elected worker before falling back locally")
		workerMode    = flag.Bool("worker", false, "worker mode: serve measurement RPCs (POST /v1/measure) through this daemon's cache and store stack")
		coordinator   = flag.String("coordinator", "", "coordinator base URL to heartbeat this worker's registration to (implies -worker)")
		advertise     = flag.String("advertise", "", "base URL this worker advertises to the coordinator (default http://127.0.0.1<addr>)")
		workerID      = flag.String("worker-id", "", "stable worker identity — its shard assignment hashes against it, so a restarted worker reclaiming its ID reclaims its warm shard (default hostname<addr>)")
		heartbeat     = flag.Duration("heartbeat", fabric.DefaultHeartbeat, "worker re-registration period; the coordinator drops workers silent for 3x this")
		measureConc   = flag.Int("measure-concurrency", 0, "concurrently served measurement RPCs in worker mode (0 = NumCPU)")
	)
	flag.Parse()

	platform.SetPoolLimits(*enginePool, *memPool)

	// The provider stack, leaf to root: simulator → optional persistent
	// spill (GC'd to the configured bounds) → bounded LRU. The cache is
	// shared by every job the daemon ever runs.
	var provider measure.Provider = measure.Simulator{}
	var store *measure.Store
	if *cacheDir != "" {
		var err error
		store, err = measure.NewStore(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "autoarchd: %v\n", err)
			os.Exit(1)
		}
		persistent := measure.NewPersistent(provider, store)
		gc := measure.GCPolicy{MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge}
		if gc.Enabled() {
			persistent.EnableGC(gc, *storeGCEvery)
		}
		if *storeLease > 0 {
			persistent.EnableLease(*storeLease)
		}
		provider = persistent
		st := store.Stats()
		log.Printf("report store at %s (v%d, %d entries, %d bytes)", store.Dir(), measure.StoreVersion, st.Entries, st.Bytes)
	}
	// Coordinator mode: the remote provider slots between the bounded
	// cache (warm keys never leave the host) and the local stack (the
	// counted fallback when the fleet cannot answer). Remote results
	// spill to the shared store when one is configured, so the fabric
	// degrades to exactly the passive -cache-dir sharing it replaces.
	var remote *fabric.Remote
	if *fabricOn {
		remote = fabric.NewRemote(fabric.NewRegistry(), provider, fabric.RemoteOptions{
			Timeout: *fabricTimeout,
			Retries: *fabricRetries,
			Store:   store,
		})
		provider = remote
		log.Printf("fabric coordinator: sharding measurements across registered workers (rpc timeout %v, %d retries)", *fabricTimeout, *fabricRetries)
	}
	cache := measure.NewCache(provider, *cacheEntries)

	// Worker mode: measurement RPCs are served through the same cache
	// and store stack local jobs use, under a bounded semaphore.
	var worker *fabric.Worker
	if *workerMode || *coordinator != "" {
		worker = fabric.NewWorker(cache, *measureConc)
	}

	var modelStore *core.ModelStore
	if *modelDir != "" {
		var err error
		modelStore, err = core.NewModelStore(*modelDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "autoarchd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("model artifacts at %s (v%d)", modelStore.Dir(), core.ModelSetVersion)
	}

	server := serve.New(serve.Options{
		Workers:           *jobs,
		QueueDepth:        *queueDepth,
		BulkQueueDepth:    *bulkQueue,
		Fabric:            remote,
		Worker:            worker,
		Provider:          cache,
		Store:             store,
		RetainJobs:        *jobRetain,
		JobTTL:            *jobTTL,
		ModelCacheEntries: *modelCache,
		ModelStore:        modelStore,
		SlowJobThreshold:  *slowJob,
	})
	defer server.Close()

	handler := server.Handler()
	if *pprofOn {
		// The admin mux wraps the API: pprof's handlers are registered
		// explicitly (not via the package's DefaultServeMux side effect)
		// so profiling is strictly opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	httpServer := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *coordinator != "" {
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = host + *addr
		}
		adv := *advertise
		if adv == "" {
			if strings.HasPrefix(*addr, ":") {
				adv = "http://127.0.0.1" + *addr
			} else {
				adv = "http://" + *addr
			}
		}
		reg := fabric.Registration{ID: id, URL: adv, TTLSeconds: (3 * *heartbeat).Seconds()}
		go fabric.Heartbeat(ctx, nil, *coordinator, reg, *heartbeat)
		log.Printf("fabric worker %q heartbeating to %s every %v (advertising %s)", id, *coordinator, *heartbeat, adv)
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpServer.Shutdown(shutdownCtx)
	}()

	log.Printf("autoarchd listening on %s (%d job workers, cache cap %d)", *addr, *jobs, *cacheEntries)
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "autoarchd: %v\n", err)
		os.Exit(1)
	}
}
