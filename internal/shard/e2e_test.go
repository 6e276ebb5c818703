package shard_test

// End-to-end tests of the sharded fleet: N real gles2gpgpud replicas
// (each a full serve.Scheduler behind its own HTTP listener), a router
// in front, and bit-identical comparison of every routed result against
// direct single-engine execution — including while one replica is
// killed and restarted mid-stream. The router must be invisible in the
// numbers; only latency and placement may change.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gles2gpgpu/internal/codec"
	"gles2gpgpu/internal/core"
	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/kernels"
	"gles2gpgpu/internal/pipeline"
	"gles2gpgpu/internal/serve"
	"gles2gpgpu/internal/shard"
)

const e2eN = 32

// replica is one in-process gles2gpgpud: a scheduler plus an HTTP
// server on a stable address, killable and restartable on that address
// so chaos tests can model a daemon crash + supervisor restart.
type replica struct {
	t    *testing.T
	addr string

	mu  sync.Mutex
	s   *serve.Scheduler
	srv *http.Server
}

func startReplica(t *testing.T) *replica {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &replica{t: t, addr: l.Addr().String()}
	r.serveOn(l)
	t.Cleanup(r.kill)
	return r
}

func (r *replica) serveOn(l net.Listener) {
	s, err := serve.New(serve.Config{Devices: []string{"vc4"}, QueueDepth: 256})
	if err != nil {
		r.t.Fatal(err)
	}
	s.Start()
	srv := &http.Server{Handler: serve.Handler(s)}
	go srv.Serve(l)
	r.mu.Lock()
	r.s, r.srv = s, srv
	r.mu.Unlock()
}

func (r *replica) url() string { return "http://" + r.addr }

// kill closes the listener and all live connections (in-flight forwards
// see a transport error) and stops the scheduler. Idempotent.
func (r *replica) kill() {
	r.mu.Lock()
	s, srv := r.s, r.srv
	r.s, r.srv = nil, nil
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if s != nil {
		s.Stop()
	}
}

// restart rebinds the replica's original address with a fresh scheduler
// — a cold daemon, as after a crash: empty caches, same identity.
func (r *replica) restart() {
	r.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 100; i++ { // the old socket can linger briefly
		l, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		r.t.Fatalf("rebind %s: %v", r.addr, err)
	}
	r.serveOn(l)
}

// directRun executes one job on a fresh engine with no service or
// routing machinery and returns the result matrix — the ground truth
// every routed result must match bit-for-bit.
func directRun(t *testing.T, p serve.Params) []float64 {
	t.Helper()
	prof, err := device.ByName(p.Device)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{
		Device: prof,
		Width:  p.N, Height: p.N,
		Swap:   core.SwapNone,
		Target: core.TargetTexture,
		UseVBO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Inputs()
	var r core.Runner
	switch p.Kernel {
	case "sum":
		r, err = core.NewSum(e, a, b)
	case "sgemm":
		r, err = core.NewSgemm(e, a, b, p.Block)
	case "saxpy":
		r, err = core.NewSaxpy(e, float32(p.Alpha), a, b)
	default:
		t.Fatalf("directRun: kernel %q", p.Kernel)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Finish()
	out, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	return out.Data
}

func e2eSpecs(n int) []serve.Params {
	specs := make([]serve.Params, n)
	for i := range specs {
		p := serve.Params{Device: "vc4", Kernel: "sum", N: e2eN, Seed: int64(i%4) + 1}
		switch i % 4 {
		case 2:
			p.Kernel = "saxpy"
			// 8 distinct alpha classes -> 10 distinct affinity keys per
			// stream, enough that a 3-replica ring with ephemeral-port
			// names spreads traffic with near-certainty.
			p.Alpha = float64((i/4)%8+1) / 16
		case 3:
			p.Kernel = "sgemm"
			p.Block = 16
		}
		specs[i] = p
	}
	return specs
}

func checkBitIdentical(t *testing.T, i int, p serve.Params, got []float64, truth map[string][]float64, truthMu *sync.Mutex) error {
	key, err := p.Key()
	if err != nil {
		return err
	}
	// Kernel outputs depend only on the key class + seed; fold seed in.
	tk := fmt.Sprintf("%s/seed=%d", key, p.Seed)
	truthMu.Lock()
	want, ok := truth[tk]
	truthMu.Unlock()
	if !ok {
		return fmt.Errorf("job %d: no ground truth for %s", i, tk)
	}
	if len(got) != len(want) {
		return fmt.Errorf("job %d (%s): got %d values, want %d", i, tk, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("job %d (%s): out[%d] = %v, direct = %v (must be bit-identical)",
				i, tk, k, got[k], want[k])
		}
	}
	return nil
}

func groundTruth(t *testing.T, specs []serve.Params) map[string][]float64 {
	truth := map[string][]float64{}
	for _, p := range specs {
		key, err := p.Key()
		if err != nil {
			t.Fatal(err)
		}
		tk := fmt.Sprintf("%s/seed=%d", key, p.Seed)
		if _, ok := truth[tk]; !ok {
			truth[tk] = directRun(t, p)
		}
	}
	return truth
}

// TestRoutedEndToEndBitIdentity routes a mixed workload through three
// real replicas and requires every result to match direct engine
// execution bit-for-bit, with the key space actually spread across the
// fleet.
func TestRoutedEndToEndBitIdentity(t *testing.T) {
	var reps []*replica
	var urls []string
	for i := 0; i < 3; i++ {
		r := startReplica(t)
		reps = append(reps, r)
		urls = append(urls, r.url())
	}
	// The window is widened past the burst size: admission behaviour has
	// its own test, this one is about numbers.
	rt, err := shard.NewRouter(shard.Config{Replicas: urls, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(shard.Handler(rt))
	defer front.Close()
	// The router speaks the daemon protocol, so the plain daemon client
	// works against it unchanged.
	client := &serve.Client{Base: front.URL}

	specs := e2eSpecs(48)
	truth := groundTruth(t, specs)
	var truthMu sync.Mutex

	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, p := range specs {
		wg.Add(1)
		go func(i int, p serve.Params) {
			defer wg.Done()
			res, err := client.Do(context.Background(), p)
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
				return
			}
			if err := checkBitIdentical(t, i, p, res.Out, truth, &truthMu); err != nil {
				errs <- err
			}
		}(i, p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The workload's key classes must have spread over the fleet: with 6
	// distinct keys on 3 replicas, at least two replicas see traffic.
	routed := rt.RoutedTotals()
	busy := 0
	var total int64
	for _, n := range routed {
		if n > 0 {
			busy++
		}
		total += n
	}
	if busy < 2 {
		t.Errorf("only %d replicas saw traffic (routed=%v), want >= 2", busy, routed)
	}
	if total != int64(len(specs)) {
		t.Errorf("routed %d terminal responses, want %d", total, len(specs))
	}
	if rt.Retries() != 0 {
		t.Errorf("healthy fleet needed %d retries, want 0", rt.Retries())
	}
}

// TestRoutedChaosKillRestart streams jobs through the fleet while one
// replica is killed mid-run and later restarted. Every job that returns
// OK must still be bit-identical to direct execution (retries are safe
// because jobs are deterministic), the retry budget bounds per-job
// attempts, and the fleet heals: the restarted replica is readmitted
// and serves again.
func TestRoutedChaosKillRestart(t *testing.T) {
	var reps []*replica
	var urls []string
	for i := 0; i < 3; i++ {
		r := startReplica(t)
		reps = append(reps, r)
		urls = append(urls, r.url())
	}
	rt, err := shard.NewRouter(shard.Config{
		Replicas:       urls,
		MaxInFlight:    64,
		RetryBudget:    3,
		RetryBackoff:   5 * time.Millisecond,
		FailThreshold:  2,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Start()
	front := httptest.NewServer(shard.Handler(rt))
	defer front.Close()
	client := &serve.Client{Base: front.URL}

	const jobs = 96
	specs := e2eSpecs(jobs)
	truth := groundTruth(t, specs)
	var truthMu sync.Mutex

	// Kill replica 1 once a third of the stream is in, restart it at two
	// thirds; the stream never pauses.
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	okCount := int64(0)
	var okMu sync.Mutex
	for i, p := range specs {
		if i == jobs/3 {
			reps[1].kill()
		}
		if i == 2*jobs/3 {
			reps[1].restart()
		}
		wg.Add(1)
		go func(i int, p serve.Params) {
			defer wg.Done()
			res, err := client.Do(context.Background(), p)
			if err != nil {
				// A failed job is acceptable chaos fallout only as an
				// explicit error — never as wrong data. Shed/exhausted
				// jobs are counted, corrupted ones fail the test.
				return
			}
			if err := checkBitIdentical(t, i, p, res.Out, truth, &truthMu); err != nil {
				errs <- err
				return
			}
			okMu.Lock()
			okCount++
			okMu.Unlock()
		}(i, p)
		time.Sleep(2 * time.Millisecond) // open-ish pacing so the kill lands mid-stream
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if okCount < jobs*3/4 {
		t.Errorf("only %d/%d jobs succeeded; re-routing around the dead replica should save most", okCount, jobs)
	}
	if rt.Ejections() < 1 {
		t.Errorf("ejections = %d, want >= 1 (replica was killed mid-run)", rt.Ejections())
	}
	// Retry budget: total retries can never exceed jobs × budget.
	if max := int64(jobs * 3); rt.Retries() > max {
		t.Errorf("retries = %d, exceeds the fleet-wide budget bound %d", rt.Retries(), max)
	}

	// The fleet heals: the restarted replica is readmitted...
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && rt.HealthyCount() < 3 {
		time.Sleep(20 * time.Millisecond)
	}
	if rt.HealthyCount() != 3 {
		t.Fatalf("healthy count = %d after restart, want 3", rt.HealthyCount())
	}
	if rt.Readmissions() < 1 {
		t.Errorf("readmissions = %d, want >= 1", rt.Readmissions())
	}
	// ...and post-heal traffic is still bit-identical, including keys
	// owned by the restarted (cold) replica.
	for i, p := range e2eSpecs(12) {
		res, err := client.Do(context.Background(), p)
		if err != nil {
			t.Fatalf("post-heal job %d: %v", i, err)
		}
		if err := checkBitIdentical(t, i, p, res.Out, truth, &truthMu); err != nil {
			t.Error(err)
		}
	}
}

// directPyramidRun executes a pyramid pipeline job on a fresh engine with
// fusion off and returns the last level — the oracle for a routed
// pipeline result, whose N is smaller than the job's.
func directPyramidRun(t *testing.T, p serve.Params) []float64 {
	t.Helper()
	prof, err := device.ByName(p.Device)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{
		Device: prof,
		Width:  p.N, Height: p.N,
		Swap:   core.SwapNone,
		Target: core.TargetTexture,
		UseVBO: true,
		NoFuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.PyramidGraph(p.N, 3, kernels.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.Compile(e, g)
	if err != nil {
		t.Fatal(err)
	}
	src := e.NewTensor(p.N, p.N, codec.Unit)
	if err := src.Upload(p.Source(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(map[string]*core.Tensor{pipeline.SrcInput: src}); err != nil {
		t.Fatal(err)
	}
	e.Finish()
	out, err := plan.Output(g.Outputs[len(g.Outputs)-1]).Read()
	if err != nil {
		t.Fatal(err)
	}
	return out.Data
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// postJob sends one job body with the given Accept header (none when
// empty) and returns the response's Content-Type, body and routed
// replica.
func postJob(t *testing.T, url string, body []byte, accept string) (contentType string, data []byte, replica string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, data)
	}
	return resp.Header.Get("Content-Type"), data, resp.Header.Get("X-Routed-Replica")
}

// TestRoutedResultEncodingsBitIdentity sends a kernel job and a pyramid
// job through the router with and without the binary Accept header. Both
// encodings must carry results bit-identical to direct engine runs, the
// router must echo the replica's Content-Type, the JSON answer must be
// byte for byte what json.Encoder writes for the Result, and the Go
// client must still read a daemon that ignores Accept and answers JSON.
func TestRoutedResultEncodingsBitIdentity(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, startReplica(t).url())
	}
	rt, err := shard.NewRouter(shard.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(shard.Handler(rt))
	defer front.Close()

	jobs := []struct {
		p     serve.Params
		n     int
		truth []float64
	}{
		{p: serve.Params{Device: "vc4", Kernel: "saxpy", N: e2eN, Alpha: 0.25, Seed: 3}, n: e2eN},
		{p: serve.Params{Device: "vc4", Pipeline: "pyramid", N: e2eN, Seed: 5}, n: e2eN / 8},
	}
	jobs[0].truth = directRun(t, jobs[0].p)
	jobs[1].truth = directPyramidRun(t, jobs[1].p)

	for _, j := range jobs {
		body, err := json.Marshal(j.p)
		if err != nil {
			t.Fatal(err)
		}
		for accept, wantCT := range map[string]string{"": "application/json", serve.ResultMediaType: serve.ResultMediaType} {
			name := fmt.Sprintf("%s%s accept=%q", j.p.Kernel, j.p.Pipeline, accept)
			ct, data, replica := postJob(t, front.URL, body, accept)
			if ct != wantCT {
				t.Errorf("%s: router Content-Type %q, want %q", name, ct, wantCT)
			}
			if replicaCT, _, _ := postJob(t, replica, body, accept); ct != replicaCT {
				t.Errorf("%s: router Content-Type %q, replica's %q", name, ct, replicaCT)
			}
			res, err := serve.DecodeResult(ct, data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.N != j.n || !sameBits(res.Out, j.truth) {
				t.Errorf("%s: n=%d result differs from the direct run (n=%d)", name, res.N, j.n)
			}
			if accept == "" {
				var enc bytes.Buffer
				if err := json.NewEncoder(&enc).Encode(res); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, enc.Bytes()) {
					t.Errorf("%s: JSON body is not json.Encoder's output for its Result", name)
				}
			}
		}
	}

	// A daemon that predates the binary frame ignores Accept.
	want := &serve.Result{Out: jobs[0].truth, N: e2eN, Device: "vc4", Kernel: "saxpy"}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(want)
	}))
	defer old.Close()
	res, err := (&serve.Client{Base: old.URL}).Do(context.Background(), jobs[0].p)
	if err != nil {
		t.Fatalf("client against a JSON-only daemon: %v", err)
	}
	if res.N != e2eN || !sameBits(res.Out, want.Out) {
		t.Error("client against a JSON-only daemon: result differs from the direct run")
	}
}

// TestRoutedAffinityKeepsRunnersWarm is the router's reason to exist:
// consistent-hash affinity sends every job of one warm-runner class to
// one replica, so each class compiles once in the fleet, while
// round-robin builds every class on every replica. The same sequential
// stream goes through each policy in front of two fresh replicas, and the
// fleet's runner misses are read back from each replica's /v1/stats. The
// stream has no more classes than one worker's warm-runner cache holds,
// so no eviction blurs the count, and each class arrives twice in a row,
// so round-robin's rotation cannot pin a class to one replica by accident.
func TestRoutedAffinityKeepsRunnersWarm(t *testing.T) {
	const classes, jobs = 4, 24
	fleetMisses := func(policy string) int64 {
		var urls []string
		for i := 0; i < 2; i++ {
			urls = append(urls, startReplica(t).url())
		}
		rt, err := shard.NewRouter(shard.Config{Replicas: urls, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		front := httptest.NewServer(shard.Handler(rt))
		defer front.Close()
		client := &serve.Client{Base: front.URL}
		ctx := context.Background()
		for i := 0; i < jobs; i++ {
			class := (i / 2) % classes
			p := serve.Params{Device: "vc4", Kernel: "saxpy", N: 16,
				Alpha: float64(class+1) / (classes + 1), Seed: int64(i%3) + 1}
			if _, err := client.Do(ctx, p); err != nil {
				t.Fatalf("%s job %d: %v", policy, i, err)
			}
		}
		var misses int64
		for _, u := range urls {
			st, err := (&serve.Client{Base: u}).Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range st.Devices {
				misses += d.RunnerMisses
			}
		}
		return misses
	}
	aff := fleetMisses(shard.PolicyAffinity)
	rr := fleetMisses(shard.PolicyRoundRobin)
	if aff != classes {
		t.Errorf("affinity fleet runner misses = %d, want %d (one build per class)", aff, classes)
	}
	if aff >= rr {
		t.Errorf("affinity fleet runner misses %d, round-robin %d: affinity must keep runners warmer", aff, rr)
	}
}
