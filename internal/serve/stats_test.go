package serve

// The /v1/stats JSON surface exposes warm-runner and tensor-pool hit/miss
// counters; the shard router's end-to-end tests read them to prove
// affinity routing keeps replicas warmer than round-robin. These tests
// pin the counters' semantics (first job of a key is a runner miss,
// repeats are hits) and the HTTP framing.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStatsRunnerHitMissCounters(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Start()

	ctx := context.Background()
	// Three jobs of one key: first builds the runner (miss), the other two
	// reuse it (hits). A second key adds one more miss.
	for i := 0; i < 3; i++ {
		if _, err := s.Do(ctx, Params{Device: "vc4", Kernel: "sum", N: 16, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Do(ctx, Params{Device: "vc4", Kernel: "saxpy", N: 16, Alpha: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	st := s.Metrics().Stats()
	ds, ok := st.Devices["vc4"]
	if !ok {
		t.Fatalf("stats missing device vc4: %+v", st)
	}
	if ds.RunnerMisses != 2 {
		t.Errorf("runner misses = %d, want 2 (one build per key)", ds.RunnerMisses)
	}
	if ds.RunnerHits < 2 {
		t.Errorf("runner hits = %d, want >= 2 (repeated sum jobs reuse the warm runner)", ds.RunnerHits)
	}
	if ds.JobsCompleted != 4 {
		t.Errorf("jobs completed = %d, want 4", ds.JobsCompleted)
	}
	if ds.JobsSubmitted != 4 {
		t.Errorf("jobs submitted = %d, want 4", ds.JobsSubmitted)
	}
	if ds.PoolHits+ds.PoolMisses == 0 {
		t.Error("tensor pool saw no traffic; the stats surface must expose pool counters")
	}

	// The same counters must round-trip the HTTP endpoint.
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	client := &Client{Base: srv.URL}
	got, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Devices["vc4"].RunnerMisses != ds.RunnerMisses || got.Devices["vc4"].RunnerHits < ds.RunnerHits {
		t.Errorf("HTTP stats %+v disagree with direct snapshot %+v", got.Devices["vc4"], ds)
	}

	// Prometheus mirrors the same pair, so dashboards and the JSON surface
	// can never drift apart silently.
	var buf strings.Builder
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gles2gpgpud_runner_hits_total{device="vc4"}`,
		`gles2gpgpud_runner_misses_total{device="vc4"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

func TestMetricsContentTypeAndStatsFraming(t *testing.T) {
	s, err := New(Config{Devices: []string{"vc4"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Prometheus scrapers negotiate on the 0.0.4 text exposition version;
	// a bare text/plain makes strict scrapers fall back or refuse.
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want text/plain with version=0.0.4", ct)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/v1/stats Content-Type = %q, want application/json", ct)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/v1/stats is not valid Stats JSON: %v", err)
	}
	if _, ok := st.Devices["vc4"]; !ok {
		t.Errorf("/v1/stats missing configured device: %+v", st)
	}
}

func TestParamsKeyMatchesSchedulerClass(t *testing.T) {
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Kernel: "sum", N: 64}, "sum/n=64"},
		{Params{Kernel: "sgemm", N: 256}, "sgemm/n=256/b=16"}, // default block applied
		{Params{Kernel: "saxpy", N: 64, Alpha: 0.25}, "saxpy/n=64/a=0.25"},
		{Params{Pipeline: "sepconv", N: 128}, "pipeline:sepconv/n=128"},
	}
	for _, c := range cases {
		got, err := c.p.Key()
		if err != nil {
			t.Errorf("Key(%+v): %v", c.p, err)
			continue
		}
		if got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.p, got, c.want)
		}
		// Key must not mutate the caller's Params (defaults are applied to
		// a copy): a second call must agree.
		again, _ := c.p.Key()
		if again != got {
			t.Errorf("Key is not idempotent: %q then %q", got, again)
		}
	}
	if _, err := (Params{Kernel: "nope", N: 8}).Key(); err == nil {
		t.Error("Key accepted an unknown kernel")
	}
}
