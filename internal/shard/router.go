package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gles2gpgpu/internal/serve"
)

// Policy selects how the router places jobs on replicas.
const (
	// PolicyAffinity consistent-hashes the job's affinity key onto the
	// ring: every job of one warm-runner class lands on the same replica,
	// so compiled programs, warm runners and resident tensors stay hot
	// per shard. This is the router's perf thesis; the servebench sweep
	// measures it against round-robin.
	PolicyAffinity = "affinity"
	// PolicyRoundRobin rotates jobs across healthy replicas regardless of
	// key — the baseline that dilutes every replica's warm-runner LRU
	// with every key.
	PolicyRoundRobin = "roundrobin"
)

// Sentinel errors the routing path returns. The HTTP layer maps
// ErrNoReplicas and ErrBusy to 429 with Retry-After (shed, do not
// buffer) and ErrExhausted to 502.
var (
	ErrNoReplicas = errors.New("shard: no healthy replicas")
	ErrBusy       = errors.New("shard: replica in-flight window full")
	ErrExhausted  = errors.New("shard: retry budget exhausted")
	ErrDraining   = errors.New("shard: replica draining")
)

// Config sizes the router.
type Config struct {
	// Replicas are the backend daemon base URLs, e.g.
	// "http://127.0.0.1:7433". Order matters only to round-robin.
	Replicas []string
	// VNodes is the virtual-node count per replica (default 128).
	VNodes int
	// Policy is PolicyAffinity (default) or PolicyRoundRobin.
	Policy string
	// MaxInFlight bounds concurrently forwarded jobs per replica
	// (default 32). A full window rejects with 429 + Retry-After —
	// admission control, mirroring the backends' own bounded queues.
	MaxInFlight int
	// RetryBudget is the number of re-route attempts after the first
	// (default 2). Retries are safe unconditionally: jobs are
	// bit-deterministic, side-effect-free functions of their params, so
	// re-running one — even one whose first attempt actually completed
	// before the connection died — produces the identical bytes.
	RetryBudget int
	// RetryBackoff is the base backoff before a retry (default 10ms),
	// doubled per attempt and jittered ±50%.
	RetryBackoff time.Duration
	// FailThreshold is the consecutive-failure count (forward errors and
	// failed health probes both count) that ejects a replica from the
	// ring (default 3).
	FailThreshold int
	// HealthInterval spaces the background health probes (default 500ms).
	// Ejected replicas keep being probed; a success readmits them.
	HealthInterval time.Duration
	// HTTP is the forwarding transport; nil means a client with no
	// global timeout (job contexts bound each request).
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Policy == "" {
		c.Policy = PolicyAffinity
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	return c
}

// replica is one backend's routing state. All fields are guarded by the
// router mutex.
type replica struct {
	name     string
	inflight int
	fails    int // consecutive forward/probe failures
	healthy  bool
	draining bool
	routed   int64
}

// Router fronts a replica fleet: it places jobs by consistent hashing
// (or round-robin), health-checks the backends, ejects and readmits
// them on the ring, bounds per-replica in-flight windows, and retries
// failed forwards around dead shards within a per-job budget.
type Router struct {
	cfg     Config
	client  *http.Client
	metrics *routerMetrics

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when a replica's inflight drops
	ring   *Ring
	reps   map[string]*replica
	order  []string // config order, for round-robin rotation
	rr     int
	closed bool

	stopHealth chan struct{}
	healthWG   sync.WaitGroup
}

// NewRouter builds a router over the configured replicas. All replicas
// start healthy and on the ring; the first health pass corrects that
// within one interval. Call Start to launch the health loop and Close
// to stop it.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("shard: no replicas configured")
	}
	if cfg.Policy != PolicyAffinity && cfg.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("shard: unknown policy %q (want %s or %s)", cfg.Policy, PolicyAffinity, PolicyRoundRobin)
	}
	rt := &Router{
		cfg:        cfg,
		client:     cfg.HTTP,
		metrics:    newRouterMetrics(),
		ring:       NewRing(cfg.VNodes),
		reps:       map[string]*replica{},
		stopHealth: make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	rt.cond = sync.NewCond(&rt.mu)
	for _, name := range cfg.Replicas {
		if _, dup := rt.reps[name]; dup {
			return nil, fmt.Errorf("shard: duplicate replica %q", name)
		}
		rt.reps[name] = &replica{name: name, healthy: true}
		rt.order = append(rt.order, name)
		rt.ring.Add(name)
	}
	return rt, nil
}

// Start launches the background health loop.
func (rt *Router) Start() {
	rt.healthWG.Add(1)
	go func() {
		defer rt.healthWG.Done()
		t := time.NewTicker(rt.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stopHealth:
				return
			case <-t.C:
				rt.healthPass()
			}
		}
	}()
}

// Close stops the health loop. In-flight forwards complete on their own
// contexts.
func (rt *Router) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stopHealth)
	rt.healthWG.Wait()
}

// Policy reports the configured placement policy.
func (rt *Router) Policy() string { return rt.cfg.Policy }

// healthPass probes every replica once and applies ejection/readmission.
func (rt *Router) healthPass() {
	rt.mu.Lock()
	names := append([]string(nil), rt.order...)
	rt.mu.Unlock()
	timeout := rt.cfg.HealthInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		ok := rt.probe(ctx, name)
		cancel()
		if ok {
			rt.noteSuccess(name)
		} else {
			rt.noteFailure(name)
		}
	}
}

func (rt *Router) probe(ctx context.Context, name string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// noteSuccess resets a replica's failure streak and readmits it to the
// ring if it was ejected (never while draining: drain is deliberate ring
// removal, not a health verdict).
func (rt *Router) noteSuccess(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r, ok := rt.reps[name]
	if !ok {
		return
	}
	r.fails = 0
	if !r.healthy && !r.draining {
		r.healthy = true
		rt.ring.Add(name)
		rt.metrics.readmissions++
	}
}

// noteFailure advances the streak and ejects at the threshold. Ejection
// removes the replica's vnodes, migrating its keys to their successors;
// readmission restores the exact prior placement (the ring is a pure
// function of membership), so a kill/restart cycle is warmth-stable for
// every other shard.
func (rt *Router) noteFailure(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r, ok := rt.reps[name]
	if !ok {
		return
	}
	r.fails++
	if r.healthy && r.fails >= rt.cfg.FailThreshold {
		r.healthy = false
		rt.ring.Remove(name)
		rt.metrics.ejections++
	}
}

// Drain gracefully removes a replica from rotation: its vnodes leave
// the ring (new jobs of its keys route to the successors), then Drain
// blocks until the replica's in-flight window is empty. The backend
// itself is untouched — pair with the daemon's own SIGTERM drain to
// retire a node.
func (rt *Router) Drain(ctx context.Context, name string) error {
	rt.mu.Lock()
	r, ok := rt.reps[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("shard: unknown replica %q", name)
	}
	if !r.draining {
		r.draining = true
		rt.ring.Remove(name)
	}
	rt.mu.Unlock()

	// Wake the waiter when ctx dies so the cond loop can observe it.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			rt.cond.Broadcast()
		case <-done:
		}
	}()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	for r.inflight > 0 && ctx.Err() == nil {
		rt.cond.Wait()
	}
	return ctx.Err()
}

// pick chooses the job's first-attempt replica under the configured
// policy. Admission is strict: a full in-flight window sheds (ErrBusy)
// instead of spilling the key to a colder shard — the same
// backpressure-over-buffering stance the backends take, and the only
// stance that keeps the affinity/round-robin comparison honest.
func (rt *Router) pick(key string) (*replica, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var r *replica
	switch rt.cfg.Policy {
	case PolicyRoundRobin:
		n := len(rt.order)
		for i := 0; i < n; i++ {
			cand := rt.reps[rt.order[rt.rr%n]]
			rt.rr++
			if cand.healthy && !cand.draining {
				r = cand
				break
			}
		}
	default: // PolicyAffinity
		if owner := rt.ring.Lookup(key); owner != "" {
			r = rt.reps[owner]
		}
	}
	if r == nil {
		return nil, ErrNoReplicas
	}
	if r.inflight >= rt.cfg.MaxInFlight {
		return nil, ErrBusy
	}
	r.inflight++
	return r, nil
}

// pickRetry chooses a replacement replica after a failure: the ring walk
// from the key (affinity) or the rotation (round-robin), skipping tried
// and unhealthy replicas. Unlike first-attempt admission, a full window
// is skipped rather than shed — the job already cost a failed forward,
// so the router works harder to land it.
func (rt *Router) pickRetry(key string, tried map[string]bool) (*replica, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var candidates []string
	if rt.cfg.Policy == PolicyRoundRobin {
		candidates = rt.order
	} else {
		candidates = rt.ring.LookupN(key, len(rt.reps))
		// The ring only holds healthy members; ejections during the walk
		// are re-checked below via the replica state.
	}
	for _, name := range candidates {
		r := rt.reps[name]
		if r == nil || tried[name] || !r.healthy || r.draining || r.inflight >= rt.cfg.MaxInFlight {
			continue
		}
		r.inflight++
		return r, nil
	}
	return nil, ErrNoReplicas
}

func (rt *Router) release(r *replica) {
	rt.mu.Lock()
	r.inflight--
	rt.mu.Unlock()
	rt.cond.Broadcast()
}

// backendResponse is a forwarded job's terminal outcome.
type backendResponse struct {
	Status      int
	RetryAfter  string // verbatim backend header, propagated on 429
	ContentType string // verbatim backend header, echoed to the caller
	Body        []byte
	Replica     string
	Retries     int
}

// forward sends the job body to one replica, asking for the result in
// the accept media types, and classifies the result. retryable reports
// transport errors and 5xx (the replica, not the job, is suspect);
// everything else is terminal for the routing loop.
func (rt *Router) forward(ctx context.Context, r *replica, body []byte, accept string) (resp *backendResponse, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.name+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	httpResp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client went away; do not blame the replica.
			return nil, false, ctx.Err()
		}
		return nil, true, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, err
	}
	if httpResp.StatusCode >= 500 {
		return nil, true, fmt.Errorf("shard: %s: %s: %s", r.name, httpResp.Status, bytes.TrimSpace(data))
	}
	return &backendResponse{
		Status:      httpResp.StatusCode,
		RetryAfter:  httpResp.Header.Get("Retry-After"),
		ContentType: httpResp.Header.Get("Content-Type"),
		Body:        data,
		Replica:     r.name,
	}, false, nil
}

// RouteRaw places one job (pre-encoded Params JSON with affinity key
// already computed) and returns the backend's terminal response. accept
// is the caller's Accept header, passed to the replica verbatim so the
// replica picks the result encoding. On transport errors and 5xx it
// retries within the budget, with jittered exponential backoff,
// re-routing around replicas it has already tried or ejected. 429 and
// 4xx propagate immediately: backpressure and client errors must reach
// the caller undamped.
func (rt *Router) RouteRaw(ctx context.Context, key string, body []byte, accept string) (*backendResponse, error) {
	r, err := rt.pick(key)
	if err != nil {
		rt.metrics.rejectLocked(err)
		return nil, err
	}
	tried := map[string]bool{}
	retries := 0
	for {
		tried[r.name] = true
		resp, retryable, err := rt.forward(ctx, r, body, accept)
		rt.release(r)
		if err == nil {
			rt.mu.Lock()
			r.fails = 0
			r.routed++
			rt.mu.Unlock()
			rt.metrics.routed(r.name, resp.Status)
			resp.Retries = retries
			return resp, nil
		}
		if !retryable {
			return nil, err
		}
		rt.noteFailure(r.name)
		if retries >= rt.cfg.RetryBudget {
			rt.metrics.exhausted(err)
			return nil, fmt.Errorf("%w after %d attempts: %v", ErrExhausted, retries+1, err)
		}
		retries++
		rt.metrics.retry(err)
		// Jittered exponential backoff: base<<retry, ±50%.
		base := rt.cfg.RetryBackoff << (retries - 1)
		d := base/2 + time.Duration(rand.Int63n(int64(base)))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		r, err = rt.pickRetry(key, tried)
		if err != nil {
			// Every untried replica is ejected or full. One last chance:
			// forget the tried set (a replica may have healed) rather
			// than failing a retryable job outright.
			r, err = rt.pickRetry(key, map[string]bool{})
			if err != nil {
				rt.metrics.rejectLocked(err)
				return nil, err
			}
		}
	}
}

// Do places one job from Go (the bench and tests' entry point): encode,
// route asking for the binary result frame, decode. Backend 429s surface as *serve.RetryAfterError exactly
// like the direct client, so callers pace identically with or without
// the router in front.
func (rt *Router) Do(ctx context.Context, p serve.Params) (*serve.Result, error) {
	key, err := p.Key()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	resp, err := rt.RouteRaw(ctx, key, body, serve.ResultMediaType)
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case http.StatusOK:
		return serve.DecodeResult(resp.ContentType, resp.Body)
	case http.StatusTooManyRequests:
		after := time.Second
		if secs, err := strconv.Atoi(resp.RetryAfter); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return nil, &serve.RetryAfterError{RetryAfter: after, Body: string(bytes.TrimSpace(resp.Body))}
	default:
		return nil, fmt.Errorf("shard: %s: status %d: %s", resp.Replica, resp.Status, bytes.TrimSpace(resp.Body))
	}
}

// ReplicaState is one backend's routing status, for /v1/replicas.
type ReplicaState struct {
	Replica  string `json:"replica"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	InFlight int    `json:"in_flight"`
	Routed   int64  `json:"routed"`
	Fails    int    `json:"consecutive_fails"`
}

// Replicas snapshots every backend's routing state in config order.
func (rt *Router) Replicas() []ReplicaState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ReplicaState, 0, len(rt.order))
	for _, name := range rt.order {
		r := rt.reps[name]
		out = append(out, ReplicaState{
			Replica: r.name, Healthy: r.healthy, Draining: r.draining,
			InFlight: r.inflight, Routed: r.routed, Fails: r.fails,
		})
	}
	return out
}

// HealthyCount returns the number of in-rotation replicas.
func (rt *Router) HealthyCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, r := range rt.reps {
		if r.healthy && !r.draining {
			n++
		}
	}
	return n
}
