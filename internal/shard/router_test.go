package shard

// Router unit tests against scripted fake backends: affinity
// stickiness, round-robin rotation, admission control, retry/ejection/
// readmission, drain-by-ring-removal, 429 propagation, and the
// Prometheus surface including the scraped per-replica p99 gauge.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gles2gpgpu/internal/serve"
)

// fakeBackend is a scriptable daemon stand-in: it answers /healthz with
// 200 and runs jobs through handle (default: echo a tiny valid Result).
type fakeBackend struct {
	srv *httptest.Server

	mu     sync.Mutex
	keys   []string // affinity keys of jobs received
	handle func(w http.ResponseWriter, p serve.Params)
}

func newFakeBackend() *fakeBackend {
	b := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var p serve.Params
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key, _ := p.Key()
		b.mu.Lock()
		b.keys = append(b.keys, key)
		h := b.handle
		b.mu.Unlock()
		if h != nil {
			h(w, p)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fakeResult(p))
	})
	b.srv = httptest.NewServer(mux)
	return b
}

// fakeResult is a well-formed Result for p: N×N values, as
// serve.DecodeResult requires.
func fakeResult(p serve.Params) serve.Result {
	return serve.Result{Out: make([]float64, p.N*p.N), N: p.N, Kernel: p.Kernel, Device: p.Device}
}

func (b *fakeBackend) URL() string { return b.srv.URL }

func (b *fakeBackend) jobCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.keys)
}

func (b *fakeBackend) distinctKeys() map[string]bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]bool{}
	for _, k := range b.keys {
		out[k] = true
	}
	return out
}

func sumJob(i int) serve.Params {
	return serve.Params{Device: "vc4", Kernel: "sum", N: 8 + 8*(i%8), Seed: int64(i)}
}

// saxpyJob generates a wide space of distinct affinity keys (alpha is
// part of the key class). Tests that must find a key owned by one
// specific replica search this space: replica names embed ephemeral
// ports, so ownership varies run to run and a handful of keys is not
// enough to guarantee a hit.
func saxpyJob(i int) serve.Params {
	return serve.Params{
		Device: "vc4", Kernel: "saxpy", N: 16,
		Alpha: float64(i%997+1) / 1000,
		Seed:  int64(i),
	}
}

func TestRouterAffinityStickiness(t *testing.T) {
	var backends []*fakeBackend
	var urls []string
	for i := 0; i < 3; i++ {
		b := newFakeBackend()
		defer b.srv.Close()
		backends = append(backends, b)
		urls = append(urls, b.URL())
	}
	rt, err := NewRouter(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx := context.Background()
	// 8 distinct keys × 5 repeats: every repeat of a key must land on the
	// replica the ring names for it.
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 8; i++ {
			if _, err := rt.Do(ctx, sumJob(i)); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	}
	total := 0
	for bi, b := range backends {
		for k := range b.distinctKeys() {
			if owner := rt.ring.Lookup(k); owner != urls[bi] {
				t.Errorf("key %q observed on %s but ring owner is %s", k, urls[bi], owner)
			}
		}
		total += b.jobCount()
	}
	if total != 40 {
		t.Errorf("backends saw %d jobs, want 40", total)
	}
	// A key must never appear on two replicas.
	seen := map[string]int{}
	for bi, b := range backends {
		for k := range b.distinctKeys() {
			if prev, dup := seen[k]; dup {
				t.Errorf("key %q served by both replica %d and %d", k, prev, bi)
			}
			seen[k] = bi
		}
	}
}

func TestRouterRoundRobinRotation(t *testing.T) {
	var backends []*fakeBackend
	var urls []string
	for i := 0; i < 3; i++ {
		b := newFakeBackend()
		defer b.srv.Close()
		backends = append(backends, b)
		urls = append(urls, b.URL())
	}
	rt, err := NewRouter(Config{Replicas: urls, Policy: PolicyRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// One single key, 9 jobs: round-robin must spread it 3/3/3 — the
	// warmth-diluting behaviour the affinity policy exists to avoid.
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		if _, err := rt.Do(ctx, serve.Params{Device: "vc4", Kernel: "sum", N: 16, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for bi, b := range backends {
		if b.jobCount() != 3 {
			t.Errorf("round-robin backend %d saw %d jobs, want 3", bi, b.jobCount())
		}
	}
}

func TestRouterAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	b := newFakeBackend()
	defer b.srv.Close()
	b.handle = func(w http.ResponseWriter, p serve.Params) {
		<-release
		json.NewEncoder(w).Encode(fakeResult(p))
	}
	rt, err := NewRouter(Config{Replicas: []string{b.URL()}, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(Handler(rt))
	defer srv.Close()

	// Occupy the single in-flight slot.
	errc := make(chan error, 1)
	go func() {
		_, err := rt.Do(context.Background(), serve.Params{Device: "vc4", Kernel: "sum", N: 8, Seed: 1})
		errc <- err
	}()
	waitFor(t, time.Second, func() bool {
		return rt.Replicas()[0].InFlight == 1
	})

	// The next job must shed with 429 + Retry-After through HTTP.
	body, _ := json.Marshal(serve.Params{Device: "vc4", Kernel: "sum", N: 8, Seed: 2})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full window status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After pacing hint")
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("occupying job: %v", err)
	}
}

func TestRouterRetryReroutesAroundDeadReplica(t *testing.T) {
	good := newFakeBackend()
	defer good.srv.Close()
	bad := newFakeBackend()
	bad.srv.Close() // dead from the start: connection refused

	rt, err := NewRouter(Config{
		Replicas:     []string{good.URL(), bad.URL()},
		RetryBudget:  2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Find keys the ring places on the dead replica; routing them must
	// succeed anyway via retry onto the survivor.
	ctx := context.Background()
	routedViaRetry := 0
	for i := 0; i < 512 && routedViaRetry < 5; i++ {
		p := saxpyJob(i)
		key, _ := p.Key()
		if rt.ring.Lookup(key) != bad.URL() {
			continue
		}
		routedViaRetry++
		if _, err := rt.Do(ctx, p); err != nil {
			t.Fatalf("job with dead owner: %v", err)
		}
	}
	if routedViaRetry == 0 {
		t.Fatal("no test key hashed to the dead replica; widen the key set")
	}
	if got := rt.Retries(); got < int64(routedViaRetry) {
		t.Errorf("retries = %d, want >= %d (one per dead-owner job)", got, routedViaRetry)
	}
	// Three forward failures eject the dead replica; afterwards its keys
	// route straight to the survivor with no retry.
	if rt.HealthyCount() != 1 {
		t.Errorf("healthy count = %d, want 1 after ejection", rt.HealthyCount())
	}
	if rt.Ejections() != 1 {
		t.Errorf("ejections = %d, want 1", rt.Ejections())
	}
	before := rt.Retries()
	for i := 0; i < 8; i++ {
		if _, err := rt.Do(ctx, sumJob(i)); err != nil {
			t.Fatalf("post-ejection job %d: %v", i, err)
		}
	}
	if rt.Retries() != before {
		t.Errorf("post-ejection jobs still retried (%d -> %d); ejected replica must be off the ring", before, rt.Retries())
	}
}

func TestRouterEjectionAndReadmissionViaHealthLoop(t *testing.T) {
	good := newFakeBackend()
	defer good.srv.Close()

	// A backend we can kill and resurrect on the same address.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)

	rt, err := NewRouter(Config{
		Replicas:       []string{good.URL(), "http://" + addr},
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Start()

	// Kill it: the health loop must eject within a few intervals.
	srv.Close()
	waitFor(t, 5*time.Second, func() bool { return rt.HealthyCount() == 1 })
	if rt.Ejections() < 1 {
		t.Errorf("ejections = %d, want >= 1", rt.Ejections())
	}

	// Resurrect on the same address: the loop must readmit.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: mux}
	go srv2.Serve(l2)
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool { return rt.HealthyCount() == 2 })
	if rt.Readmissions() < 1 {
		t.Errorf("readmissions = %d, want >= 1", rt.Readmissions())
	}
}

func TestRouterDrainMigratesKeys(t *testing.T) {
	var urls []string
	var backends []*fakeBackend
	for i := 0; i < 3; i++ {
		b := newFakeBackend()
		defer b.srv.Close()
		backends = append(backends, b)
		urls = append(urls, b.URL())
	}
	rt, err := NewRouter(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Keys owned by urls[1] before the drain...
	var victimKeys []string
	for i := 0; i < 512 && len(victimKeys) < 4; i++ {
		key, _ := saxpyJob(i).Key()
		if rt.ring.Lookup(key) == urls[1] {
			victimKeys = append(victimKeys, key)
		}
	}
	if len(victimKeys) == 0 {
		t.Fatal("no key hashed to the drain victim")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx, urls[1]); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// ...must now route to other replicas, and the drained one sees no
	// new traffic.
	before := backends[1].jobCount()
	for i := 0; i < 16; i++ {
		if _, err := rt.Do(ctx, sumJob(i)); err != nil {
			t.Fatalf("post-drain job %d: %v", i, err)
		}
	}
	if got := backends[1].jobCount(); got != before {
		t.Errorf("drained replica received %d new jobs, want 0", got-before)
	}
	for _, key := range victimKeys {
		if owner := rt.ring.Lookup(key); owner == urls[1] || owner == "" {
			t.Errorf("key %q still owned by drained replica (owner %q)", key, owner)
		}
	}
	// A drained replica stays out even though its health probes succeed.
	rt.healthPass()
	if rt.HealthyCount() != 2 {
		t.Errorf("healthy count = %d after drain + health pass, want 2", rt.HealthyCount())
	}
}

func TestRouterPropagatesBackend429(t *testing.T) {
	b := newFakeBackend()
	defer b.srv.Close()
	b.handle = func(w http.ResponseWriter, p serve.Params) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "serve: device queue full", http.StatusTooManyRequests)
	}
	rt, err := NewRouter(Config{Replicas: []string{b.URL()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(Handler(rt))
	defer srv.Close()

	body, _ := json.Marshal(serve.Params{Device: "vc4", Kernel: "sum", N: 8, Seed: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want propagated 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want backend's %q", got, "7")
	}
	if b.jobCount() != 1 {
		t.Errorf("backend saw %d attempts, want 1 (429 must not be retried)", b.jobCount())
	}

	// The Go client path surfaces it as *serve.RetryAfterError with the
	// backend's pacing, matching the direct client contract.
	var retry *serve.RetryAfterError
	_, err = rt.Do(context.Background(), serve.Params{Device: "vc4", Kernel: "sum", N: 8, Seed: 1})
	if !asRetryAfter(err, &retry) || retry.RetryAfter != 7*time.Second {
		t.Errorf("Do error = %v, want RetryAfterError with 7s", err)
	}
}

func asRetryAfter(err error, target **serve.RetryAfterError) bool {
	for err != nil {
		if ra, ok := err.(*serve.RetryAfterError); ok {
			*target = ra
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestRouterPrometheusSurface(t *testing.T) {
	// Backend with a real scheduler so the scraped p99 gauge has a
	// histogram to read.
	s, err := serve.New(serve.Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Start()
	backend := httptest.NewServer(serve.Handler(s))
	defer backend.Close()

	rt, err := NewRouter(Config{Replicas: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(Handler(rt))
	defer srv.Close()

	for i := 0; i < 4; i++ {
		if _, err := rt.Do(context.Background(), serve.Params{Device: "vc4", Kernel: "sum", N: 16, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("router /metrics Content-Type = %q, want the 0.0.4 exposition version", ct)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"gles2gpgpu_router_replicas_healthy 1",
		fmt.Sprintf("gles2gpgpu_router_jobs_routed_total{replica=%q} 4", backend.URL),
		"gles2gpgpu_router_ejections_total 0",
		fmt.Sprintf("gles2gpgpu_router_replica_p99_seconds{replica=%q}", backend.URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router exposition missing %q:\n%s", want, text)
		}
	}
}

func copyAll(dst *strings.Builder, src interface{ Read([]byte) (int, error) }) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := src.Read(buf)
		dst.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Two series (devices) of one family; only clock="host" counts.
	text := strings.Join([]string{
		`gles2gpgpud_job_latency_seconds_bucket{device="vc4",kernel="sum",clock="host",le="0.001"} 50`,
		`gles2gpgpud_job_latency_seconds_bucket{device="vc4",kernel="sum",clock="host",le="0.01"} 90`,
		`gles2gpgpud_job_latency_seconds_bucket{device="vc4",kernel="sum",clock="host",le="+Inf"} 100`,
		`gles2gpgpud_job_latency_seconds_bucket{device="sgx",kernel="sum",clock="host",le="0.001"} 100`,
		`gles2gpgpud_job_latency_seconds_bucket{device="sgx",kernel="sum",clock="host",le="0.01"} 100`,
		`gles2gpgpud_job_latency_seconds_bucket{device="sgx",kernel="sum",clock="host",le="+Inf"} 100`,
		`gles2gpgpud_job_latency_seconds_bucket{device="vc4",kernel="sum",clock="virtual",le="0.001"} 0`,
		`gles2gpgpud_job_latency_seconds_bucket{device="vc4",kernel="sum",clock="virtual",le="+Inf"} 100`,
	}, "\n")
	// Aggregated host: 150@1ms, 190@10ms, 200@Inf. p50 rank=100 -> in
	// first bucket: 0 + 0.001*(100/150).
	got, ok := histogramQuantile(text, "gles2gpgpud_job_latency_seconds_bucket", `clock="host"`, 0.50)
	if !ok {
		t.Fatal("no histogram found")
	}
	want := 0.001 * (100.0 / 150.0)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	// p99 rank=198 exceeds the 190 at the last finite bound -> falls in
	// the +Inf bucket, reported as that bound.
	got, _ = histogramQuantile(text, "gles2gpgpud_job_latency_seconds_bucket", `clock="host"`, 0.99)
	if got != 0.01 {
		t.Errorf("p99 = %g, want last finite bound 0.01", got)
	}
	// p90 rank=180 -> second bucket: 0.001 + (0.01-0.001)*(180-150)/40
	got, _ = histogramQuantile(text, "gles2gpgpud_job_latency_seconds_bucket", `clock="host"`, 0.90)
	want = 0.001 + 0.009*(180.0-150.0)/40.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("p90 = %g, want %g", got, want)
	}
	// The virtual clock — all mass past the last finite bound at p99 —
	// reports the last finite bound.
	got, _ = histogramQuantile(text, "gles2gpgpud_job_latency_seconds_bucket", `clock="virtual"`, 0.99)
	if got != 0.001 {
		t.Errorf("virtual p99 = %g, want last finite bound 0.001", got)
	}
	if _, ok := histogramQuantile("nothing here", "gles2gpgpud_job_latency_seconds_bucket", "", 0.5); ok {
		t.Error("quantile of empty exposition reported ok")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
