package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Client talks to a gles2gpgpud daemon.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:7433".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RetryAfterError reports a 429 rejection with the server's pacing hint.
type RetryAfterError struct {
	RetryAfter time.Duration
	Body       string
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("serve: overloaded, retry after %v: %s", e.RetryAfter, e.Body)
}

// Do submits one job and returns its result. It asks for the binary
// ResultMediaType frame and also reads a JSON answer. A 429 response
// surfaces as *RetryAfterError so callers can pace themselves.
func (c *Client) Do(ctx context.Context, p Params) (*Result, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", ResultMediaType)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return DecodeResult(resp.Header.Get("Content-Type"), data)
	case http.StatusTooManyRequests:
		after := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return nil, &RetryAfterError{RetryAfter: after, Body: string(bytes.TrimSpace(data))}
	default:
		return nil, fmt.Errorf("serve: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
}

// Metrics fetches the daemon's Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: metrics: %s", resp.Status)
	}
	return string(data), nil
}

// Stats fetches the daemon's per-device warmth counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: stats: %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// LoadOpts shapes a load-generator run.
type LoadOpts struct {
	// Jobs is the total number of jobs to push (default 64).
	Jobs int
	// Concurrency is the in-flight request cap (default 8).
	Concurrency int
	// Devices cycles job placement (default vc4, sgx).
	Devices []string
	// N is the matrix dimension (default 64).
	N int
	// SgemmEvery makes every k-th job an sgemm instead of a sum
	// (default 4; 0 disables sgemm). Ignored when N is not a power of
	// two, since sgemm requires one.
	SgemmEvery int
	// Seed drives the per-job input seeds.
	Seed int64
}

func (o LoadOpts) withDefaults() LoadOpts {
	if o.Jobs <= 0 {
		o.Jobs = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if len(o.Devices) == 0 {
		o.Devices = []string{"vc4", "sgx"}
	}
	if o.N <= 0 {
		o.N = 64
	}
	if o.SgemmEvery == 0 {
		o.SgemmEvery = 4
	}
	if o.N&(o.N-1) != 0 {
		o.SgemmEvery = -1 // sgemm requires a power-of-two n
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// LoadReport summarises a load run; the daemon CI smoke publishes it as
// JSON (schema gles2gpgpu.servebench/1).
type LoadReport struct {
	Schema      string  `json:"schema"`
	Jobs        int     `json:"jobs"`
	Completed   int     `json:"completed"`
	Rejected    int     `json:"rejected"` // 429s observed (retried until accepted)
	Failed      int     `json:"failed"`
	Concurrency int     `json:"concurrency"`
	HostMS      float64 `json:"total_host_ms"`
	ThroughputS float64 `json:"jobs_per_second"`
	// Latency percentiles over the per-job client round-trip, in ms.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	// VirtualMS sums the simulated device time all jobs consumed.
	VirtualMS float64 `json:"virtual_ms_total"`
}

// RunLoad drives the daemon with a mixed sum/sgemm job stream and collects
// a throughput/latency report. 429 responses are retried (after a short
// backoff scaled down from the server hint, so tests stay fast).
func (c *Client) RunLoad(ctx context.Context, o LoadOpts) (*LoadReport, error) {
	o = o.withDefaults()
	rep := &LoadReport{Schema: "gles2gpgpu.servebench/1", Jobs: o.Jobs, Concurrency: o.Concurrency}
	var (
		mu        sync.Mutex
		latencies []float64
		firstErr  error
	)
	sem := make(chan struct{}, o.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < o.Jobs; i++ {
		p := Params{
			Device: o.Devices[i%len(o.Devices)],
			Kernel: "sum",
			N:      o.N,
			Seed:   o.Seed + int64(i)*2,
		}
		if o.SgemmEvery > 0 && i%o.SgemmEvery == o.SgemmEvery-1 {
			p.Kernel = "sgemm"
			p.Block = 16
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(p Params) {
			defer wg.Done()
			defer func() { <-sem }()
			jobStart := time.Now()
			for {
				res, err := c.Do(ctx, p)
				var retry *RetryAfterError
				if err == nil {
					mu.Lock()
					rep.Completed++
					rep.VirtualMS += float64(res.VirtualTime.Seconds()) * 1e3
					latencies = append(latencies, float64(time.Since(jobStart).Microseconds())/1e3)
					mu.Unlock()
					return
				}
				if errors.As(err, &retry) {
					mu.Lock()
					rep.Rejected++
					mu.Unlock()
					// The server hint paces real clients in seconds; the
					// load generator only needs to get out of the way.
					backoff := retry.RetryAfter / 100
					if backoff < 5*time.Millisecond {
						backoff = 5 * time.Millisecond
					}
					select {
					case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)))):
						continue
					case <-ctx.Done():
					}
				}
				mu.Lock()
				rep.Failed++
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}(p)
	}
	wg.Wait()
	rep.HostMS = float64(time.Since(start).Microseconds()) / 1e3
	if rep.HostMS > 0 {
		rep.ThroughputS = float64(rep.Completed) / (rep.HostMS / 1e3)
	}
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	rep.P50MS, rep.P90MS, rep.P99MS = pct(0.50), pct(0.90), pct(0.99)
	if rep.Failed > 0 {
		return rep, fmt.Errorf("serve: load: %d/%d jobs failed, first error: %w", rep.Failed, o.Jobs, firstErr)
	}
	return rep, nil
}
