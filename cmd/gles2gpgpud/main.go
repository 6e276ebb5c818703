// Command gles2gpgpud is the GPGPU compute daemon: it serves the paper's
// framework over HTTP/JSON with one worker pool per simulated device,
// batching compatible jobs onto warm kernels and recycling texture
// allocations through per-engine residency pools.
//
// Usage:
//
//	gles2gpgpud                         # serve vc4 + sgx on :7433
//	gles2gpgpud -addr :0               # ephemeral port (printed on stdout)
//	gles2gpgpud -devices vc4 -workers 2 -queue 128
//
// Endpoints: POST /v1/jobs, GET /v1/devices, GET /v1/stats, GET /metrics,
// GET /healthz. SIGINT/SIGTERM drain: admission returns 503, queued and
// in-flight jobs complete, then the process exits.
//
// With -router the same binary becomes the fleet front-end instead of a
// backend: jobs are placed on the listed replicas by consistent hashing
// of their kernel-compatibility key, so each replica's warm runners and
// residency pools stay hot for its shard of the key space:
//
//	gles2gpgpud -router -replicas http://10.0.0.1:7433,http://10.0.0.2:7433
//
// Router endpoints: POST /v1/jobs (daemon protocol, unchanged for
// clients), GET /v1/replicas, POST /v1/drain?replica=, GET /metrics,
// GET /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gles2gpgpu/internal/serve"
	"gles2gpgpu/internal/shard"
)

func main() {
	addr := flag.String("addr", ":7433", "listen address (\":0\" picks an ephemeral port)")
	router := flag.Bool("router", false, "run as the fleet router instead of a compute backend")
	replicas := flag.String("replicas", "", "router mode: comma-separated backend base URLs")
	policy := flag.String("policy", shard.PolicyAffinity, "router mode: placement policy, affinity or roundrobin")
	vnodes := flag.Int("vnodes", shard.DefaultVNodes, "router mode: virtual nodes per replica on the hash ring")
	maxInflight := flag.Int("maxinflight", 0, "router mode: per-replica in-flight window (0: default 32); full window sheds 429")
	retries := flag.Int("retries", 0, "router mode: per-job retry budget on replica failure (0: default 2)")
	failThreshold := flag.Int("failthreshold", 0, "router mode: consecutive failures before a replica is ejected (0: default 3)")
	healthEvery := flag.Duration("healthevery", 0, "router mode: health probe interval (0: default 500ms)")
	devices := flag.String("devices", "vc4,sgx", "comma-separated device pools: vc4, sgx, generic")
	workers := flag.Int("workers", 1, "worker goroutines per device pool")
	queue := flag.Int("queue", 64, "bounded queue depth per device (full queue = 429)")
	maxBatch := flag.Int("maxbatch", 8, "max compatible jobs coalesced into one batch")
	poolBytes := flag.Int("poolbytes", 32<<20, "tensor residency pool budget per engine, bytes (negative disables)")
	runners := flag.Int("runners", 4, "warm-runner cache size per worker")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max time to finish queued jobs on shutdown")
	flag.Parse()

	if *router {
		if *replicas == "" {
			fmt.Fprintln(os.Stderr, "gles2gpgpud: -router requires -replicas")
			os.Exit(1)
		}
		rt, err := shard.NewRouter(shard.Config{
			Replicas:       strings.Split(*replicas, ","),
			Policy:         *policy,
			VNodes:         *vnodes,
			MaxInFlight:    *maxInflight,
			RetryBudget:    *retries,
			FailThreshold:  *failThreshold,
			HealthInterval: *healthEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gles2gpgpud: %v\n", err)
			os.Exit(1)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		ready := make(chan string, 1)
		go func() {
			fmt.Printf("gles2gpgpud: routing on %s (%s over %d replicas)\n",
				<-ready, *policy, len(strings.Split(*replicas, ",")))
		}()
		if err := shard.ListenAndServe(ctx, *addr, rt, ready); err != nil {
			fmt.Fprintf(os.Stderr, "gles2gpgpud: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("gles2gpgpud: router stopped, bye")
		return
	}

	s, err := serve.New(serve.Config{
		Devices:         strings.Split(*devices, ","),
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxBatch:        *maxBatch,
		TensorPoolBytes: *poolBytes,
		MaxRunners:      *runners,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gles2gpgpud: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ready := make(chan string, 1)
	go func() {
		fmt.Printf("gles2gpgpud: listening on %s (devices %s)\n", <-ready, *devices)
	}()
	if err := serve.ListenAndServe(ctx, *addr, s, *drainTimeout, ready); err != nil {
		fmt.Fprintf(os.Stderr, "gles2gpgpud: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("gles2gpgpud: drained, bye")
}
