package main

// The serve workload: two in-process serve.Scheduler replicas behind an
// affinity shard.Router, all in this process and talking HTTP over
// loopback, running saxpy n=128 jobs over four key classes. A closed-loop
// phase with one client per CPU measures capacity; an open-loop Poisson
// phase at a fixed rate measures latency from each job's scheduled
// arrival. Every result is compared bit for bit with a direct core run
// computed before timing starts.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/serve"
	"gles2gpgpu/internal/shard"
)

const (
	serveN        = 128
	serveReplicas = 2
	// classesPerReplica keeps each replica's warm-runner set within
	// serve's default MaxRunners (4), so every steady-state job is a hit.
	classesPerReplica = 2
	serveClasses      = serveReplicas * classesPerReplica
	// seedsPerClass is how many input seeds each class cycles through;
	// each (class, seed) result is precomputed for the bit-exact check.
	seedsPerClass = 4
	// openRate is the open-loop arrival rate in jobs/s, about a fifth of
	// the closed-loop capacity (~110 jobs/s with two clients on a 2-CPU
	// x86-64 VM). Queueing amplifies host-speed swings into the tail: the
	// p90's spread across ten seeds was up to 36% at 30 jobs/s and 29%
	// (five seeds) at 58 jobs/s, against 7% at 20 jobs/s.
	openRate = 20.0
	// nominalCapacity sizes the closed-loop phase's fixed job count so it
	// takes about half the run.
	nominalCapacity = 115.0
	// decompJobs is how many jobs the traced run sends down each of the
	// four paths (router, direct HTTP, in-process scheduler, JSON).
	decompJobs = 10 * serveClasses
	// decompOp numbers the decomposition's ops apart from open-loop jobs.
	decompOp   = 1_000_000
	jobTimeout = 30 * time.Second
)

// alphaCandidates are the saxpy alphas classes are drawn from, in order;
// all are exact in float32.
var alphaCandidates = []float64{
	0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875, 0.0625,
	0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375, 0.03125,
}

func saxpyParams(alpha float64, seed int64) serve.Params {
	return serve.Params{Device: "vc4", Kernel: "saxpy", N: serveN, Alpha: alpha, Seed: seed}
}

// replicaRing is the ring the router builds over its replicas.
func replicaRing(replicas []string) *shard.Ring {
	ring := shard.NewRing(shard.DefaultVNodes)
	for _, r := range replicas {
		ring.Add(r)
	}
	return ring
}

// balancedAlphas takes alphas from alphaCandidates, in order, until each
// replica owns exactly perReplica classes on the router's ring. Placement
// then no longer depends on which ports the replicas bound: each owns the
// same share.
func balancedAlphas(replicas []string, perReplica int) ([]float64, error) {
	ring := replicaRing(replicas)
	owned := map[string]int{}
	var out []float64
	for _, a := range alphaCandidates {
		key, err := saxpyParams(a, 0).Key()
		if err != nil {
			return nil, err
		}
		if owner := ring.Lookup(key); owned[owner] < perReplica {
			owned[owner]++
			out = append(out, a)
		}
		if len(out) == perReplica*len(replicas) {
			return out, nil
		}
	}
	return nil, fmt.Errorf("%d candidate alphas cannot give %d replicas %d classes each", len(alphaCandidates), len(replicas), perReplica)
}

// fleet is the serve workload's set-up state.
type fleet struct {
	scheds  map[string]*serve.Scheduler // by replica URL
	urls    []string
	router  *shard.Router
	base    string // router URL
	alphas  []float64
	ring    *shard.Ring
	http    *http.Client
	servers []*http.Server
	served  sync.WaitGroup
}

func (f *fleet) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed on close
	}()
	return "http://" + l.Addr().String(), nil
}

// close stops the servers, the router and the schedulers, and waits for
// every goroutine the fleet started.
func (f *fleet) close() {
	if f == nil {
		return
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.served.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.scheds {
		s.Stop()
	}
	f.http.CloseIdleConnections()
}

// setupFleet starts the replicas and the router, picks the balanced key
// classes and warms one runner per class through the router.
func setupFleet() (*fleet, error) {
	f := &fleet{
		scheds: map[string]*serve.Scheduler{},
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	for i := 0; i < serveReplicas; i++ {
		s, err := serve.New(serve.Config{Devices: []string{"vc4"}, QueueDepth: 512})
		if err != nil {
			return nil, err
		}
		s.Start()
		url, err := f.listen(serve.Handler(s))
		if err != nil {
			s.Stop()
			return nil, err
		}
		f.scheds[url] = s
		f.urls = append(f.urls, url)
	}
	var err error
	if f.router, err = shard.NewRouter(shard.Config{Replicas: f.urls, MaxInFlight: 128, HTTP: f.http}); err != nil {
		return nil, err
	}
	f.router.Start()
	if f.base, err = f.listen(shard.Handler(f.router)); err != nil {
		return nil, err
	}
	if f.alphas, err = balancedAlphas(f.urls, classesPerReplica); err != nil {
		return nil, err
	}
	f.ring = replicaRing(f.urls)
	client := &serve.Client{Base: f.base, HTTP: f.http}
	for _, a := range f.alphas {
		if _, err := client.Do(context.Background(), saxpyParams(a, 0)); err != nil {
			return nil, fmt.Errorf("warm class alpha=%g: %w", a, err)
		}
	}
	ok = true
	return f, nil
}

// serveJob is one job of a phase with its expected output.
type serveJob struct {
	params serve.Params
	want   []float64
}

// expected precomputes every (class, seed) result with a direct core run
// on an engine configured like a serve worker's.
func expected(alphas []float64, seeds []int64) (map[[2]float64][]float64, error) {
	e, err := workerEngine(serveN)
	if err != nil {
		return nil, err
	}
	out := map[[2]float64][]float64{}
	for _, a := range alphas {
		for _, s := range seeds {
			p := saxpyParams(a, s)
			x, y := p.Inputs()
			r, err := core.NewSaxpy(e, float32(a), x, y)
			if err != nil {
				return nil, err
			}
			if err := r.RunOnce(context.Background()); err != nil {
				return nil, err
			}
			e.Finish()
			m, err := r.Result()
			if err != nil {
				return nil, err
			}
			r.Release()
			out[[2]float64{a, float64(s)}] = m.Data
		}
	}
	return out, nil
}

// phaseJobs builds n jobs (n a multiple of serveClasses) so that every
// class gets n/serveClasses of them: each block of serveClasses jobs is a
// seeded permutation of the classes, and seeds cycle per class.
func phaseJobs(rng *rand.Rand, n int, alphas []float64, seeds []int64, want map[[2]float64][]float64) []serveJob {
	jobs := make([]serveJob, 0, n)
	for block := 0; len(jobs) < n; block++ {
		for _, c := range rng.Perm(len(alphas)) {
			s := seeds[block%len(seeds)]
			jobs = append(jobs, serveJob{params: saxpyParams(alphas[c], s), want: want[[2]float64{alphas[c], float64(s)}]})
		}
	}
	return jobs
}

// verify reports whether a job's result is bit-identical to the direct run.
func verify(res *serve.Result, want []float64) error {
	if len(res.Out) != len(want) {
		return fmt.Errorf("result has %d values, want %d", len(res.Out), len(want))
	}
	for i, v := range res.Out {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d is %v, direct run gave %v", i, v, want[i])
		}
	}
	return nil
}

// send submits one job through the client.
func send(c *serve.Client, j serveJob) (*serve.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	return c.Do(ctx, j.params)
}

// roundUp rounds n up to a positive multiple of m.
func roundUp(n float64, m int) int {
	k := int(math.Ceil(n / float64(m)))
	if k < 1 {
		k = 1
	}
	return k * m
}

// closedPhase runs jobs with clients concurrent closed-loop clients and
// returns the completed-job throughput.
func closedPhase(c *serve.Client, jobs []serveJob, clients int) (jobsPerSec float64, failed int) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				res, err := send(c, jobs[k])
				if err == nil {
					err = verify(res, jobs[k].want)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: closed-loop job %d: %v\n", k, err)
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(len(jobs)-int(bad.Load())) / elapsed, int(bad.Load())
}

// poissonOffsets returns n arrival times of a Poisson process at rate
// jobs/s, relative to the start of the phase.
func poissonOffsets(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openResult is one open-loop job as the generator saw it.
type openResult struct {
	scheduled, launched, done time.Duration // since the phase start
	batch                     int
	traced                    bool
	err                       error
}

// latencyMS is the job's latency from its scheduled arrival; a failed
// job has infinite latency.
func (r openResult) latencyMS() float64 {
	if r.err != nil {
		return math.Inf(1)
	}
	return ms(r.done - r.scheduled)
}

// lateMS is how late the generator launched the job.
func (r openResult) lateMS() float64 { return ms(r.launched - r.scheduled) }

// openPhase launches every job at its scheduled offset, whether or not
// earlier jobs have finished, and waits for all of them. With tr set,
// every other job runs under a span, so traced and untraced jobs share
// the same load.
func openPhase(c *serve.Client, jobs []serveJob, offsets []time.Duration, tr *tracer) []openResult {
	results := make([]openResult, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range jobs {
		if d := offsets[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		results[i].scheduled = offsets[i]
		results[i].launched = time.Since(start)
		results[i].traced = tr != nil && i%2 == 1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			var id int
			if r.traced {
				id = tr.begin(i, 0, "serve.open_job")
			}
			res, err := send(c, jobs[i])
			tr.end(id)
			r.done = time.Since(start)
			if err == nil {
				err = verify(res, jobs[i].want)
			}
			if r.err = err; err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: open-loop job %d: %v\n", i, err)
			} else {
				r.batch = res.BatchSize
			}
		}(i)
	}
	wg.Wait()
	return results
}

// warmth sums runner hits and misses across the replicas.
func (f *fleet) warmth() (hits, misses int64, err error) {
	for _, u := range f.urls {
		st, err := (&serve.Client{Base: u, HTTP: f.http}).Stats(context.Background())
		if err != nil {
			return 0, 0, err
		}
		for _, d := range st.Devices {
			hits += d.RunnerHits
			misses += d.RunnerMisses
		}
	}
	return hits, misses, nil
}

// balance is max/min of the per-replica routed deltas.
func balance(before, after map[string]int64, urls []string) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, u := range urls {
		d := float64(after[u] - before[u])
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	return ratio(hi, lo)
}

func runServe(o options) (*outcome, error) {
	setupS, f, err := medianSetup(setupFleet, (*fleet).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer f.close()

	rng := rand.New(rand.NewSource(o.seed))
	seeds := make([]int64, seedsPerClass)
	for i := range seeds {
		seeds[i] = o.seed*1000 + int64(i) + 1
	}
	want, err := expected(f.alphas, seeds)
	if err != nil {
		return nil, fmt.Errorf("direct runs: %w", err)
	}
	secs := o.seconds.Seconds()
	closedJobs := phaseJobs(rng, roundUp(0.5*secs*nominalCapacity, serveClasses), f.alphas, seeds, want)
	openJobs := phaseJobs(rng, roundUp(math.Max(0.5*secs*openRate, 120), serveClasses), f.alphas, seeds, want)
	offsets := poissonOffsets(rng, len(openJobs), openRate)
	client := &serve.Client{Base: f.base, HTTP: f.http}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	routed0 := f.router.RoutedTotals()
	retries0 := f.router.Retries()
	hits0, misses0, err := f.warmth()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	capacity, closedFailed := closedPhase(client, closedJobs, runtime.GOMAXPROCS(0))
	runtime.GC()
	mem := startMem()
	results := openPhase(client, openJobs, offsets, tr)
	allocMB, _, _ := mem.stop()
	out := &outcome{values: map[string]float64{}}
	out.attempted = len(closedJobs) + len(openJobs)
	out.failed = closedFailed
	var decomp map[string]float64
	if o.trace {
		out.attempted += decompJobs
		if decomp, err = f.decompose(tr, rng, seeds, want); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			out.failed++
		}
	}

	hits1, misses1, err := f.warmth()
	if err != nil {
		return nil, err
	}
	routed := f.router.RoutedTotals()
	var plain, traced, late []float64
	var batchSum float64
	for _, r := range results {
		if r.err != nil {
			out.failed++
		}
		if r.traced {
			traced = append(traced, r.latencyMS())
		} else {
			plain = append(plain, r.latencyMS())
		}
		late = append(late, r.lateMS())
		batchSum += float64(r.batch)
	}
	bal := balance(routed0, routed, f.urls)
	warm := ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	out.check(bal == 1, "shard.balance %v, want 1 (routed %v then %v)", bal, routed0, routed)
	out.check(warm == 1, "serve.warm_hit_ratio %v, want 1", warm)

	all := append(append([]float64(nil), plain...), traced...)
	if !o.trace {
		p90, err := percentile(all, 90)
		if err != nil {
			return nil, err
		}
		v := out.values
		v["setup_s"] = setupS
		v["p50_ms"] = median(all)
		v["p90_ms"] = p90
		v["capacity_jobs_s"] = capacity
		return out, nil
	}
	latep90, err := percentile(late, 90)
	if err != nil {
		return nil, err
	}
	v := out.values
	for k, x := range decomp {
		v[k] = x
	}
	v["serve.batch_mean"] = batchSum / float64(len(results))
	v["serve.warm_hit_ratio"] = warm
	v["shard.balance"] = bal
	v["shard.retries"] = float64(f.router.Retries() - retries0)
	v["loadgen.late_p90_ms"] = latep90
	v["go.alloc_mb"] = allocMB / float64(len(results))
	v["trace.overhead_pct"] = overheadPct(plain, traced)
	out.spans = tr.snapshot()
	return out, nil
}

// decompose sends decompJobs jobs one at a time down four paths — the
// router, the owning replica over HTTP, the owning scheduler in process,
// and encoding/json on the result — each under its own span, and splits
// a routed job's time into layers by difference.
func (f *fleet) decompose(tr *tracer, rng *rand.Rand, seeds []int64, want map[[2]float64][]float64) (map[string]float64, error) {
	jobs := phaseJobs(rng, decompJobs, f.alphas, seeds, want)
	routed := &serve.Client{Base: f.base, HTTP: f.http}
	var workerNS int64
	for i, j := range jobs {
		op := decompOp + i
		key, err := j.params.Key()
		if err != nil {
			return nil, err
		}
		owner := f.ring.Lookup(key)
		root := tr.begin(op, 0, "serve.job")
		step := func(name string, call func() (*serve.Result, error)) (*serve.Result, error) {
			id := tr.begin(op, root, name)
			res, err := call()
			tr.end(id)
			if err == nil {
				err = verify(res, j.want)
			}
			return res, err
		}
		_, err = step("shard.route", func() (*serve.Result, error) { return send(routed, j) })
		if err == nil {
			_, err = step("serve.http", func() (*serve.Result, error) {
				return send(&serve.Client{Base: owner, HTTP: f.http}, j)
			})
		}
		var res *serve.Result
		if err == nil {
			res, err = step("serve.schedule", func() (*serve.Result, error) {
				ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
				defer cancel()
				return f.scheds[owner].Do(ctx, j.params)
			})
		}
		if err == nil {
			workerNS += res.HostNanos
			var data []byte
			id := tr.begin(op, root, "serve.json_encode")
			data, err = json.Marshal(res)
			tr.end(id)
			if err == nil {
				var back serve.Result
				id = tr.begin(op, root, "serve.json_decode")
				err = json.Unmarshal(data, &back)
				tr.end(id)
				if err == nil {
					err = verify(&back, j.want)
				}
			}
		}
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("decomposition job %d: %w", i, err)
		}
	}
	var spans []span
	for _, s := range tr.snapshot() {
		if s.Op >= decompOp {
			spans = append(spans, s)
		}
	}
	t := totals(spans)
	n := float64(len(jobs))
	per := func(d time.Duration) float64 { return ms(d) / n }
	worker := time.Duration(workerNS)
	return map[string]float64{
		"serve.worker_ms":      per(worker),
		"serve.queue_ms":       per(t["serve.schedule"] - worker),
		"serve.http_ms":        per(t["serve.http"] - t["serve.schedule"]),
		"shard.hop_ms":         per(t["shard.route"] - t["serve.http"]),
		"serve.json_encode_ms": per(t["serve.json_encode"]),
		"serve.json_decode_ms": per(t["serve.json_decode"]),
	}, nil
}
