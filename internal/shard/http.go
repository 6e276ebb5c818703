package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gles2gpgpu/internal/serve"
)

// Handler builds the router's HTTP API:
//
//	POST /v1/jobs          route a job (serve.Params JSON) to a replica
//	GET  /v1/replicas      per-replica routing state (health, in-flight)
//	POST /v1/drain?replica= gracefully remove a replica from the ring
//	GET  /metrics          Prometheus text exposition (router + scraped p99)
//	GET  /healthz          liveness
//
// The job endpoint speaks exactly the daemon's protocol — clients point
// at the router instead of a backend and see the same statuses, bodies,
// result encoding (the caller's Accept header goes to the replica and the
// replica's Content-Type comes back) and Retry-After pacing, now
// fleet-wide.
func Handler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxJobBody+1))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		if len(body) > serve.MaxJobBody {
			http.Error(w, "job body too large", http.StatusRequestEntityTooLarge)
			return
		}
		var p serve.Params
		if err := json.Unmarshal(body, &p); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		key, err := p.Key()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := rt.RouteRaw(r.Context(), key, body, r.Header.Get("Accept"))
		switch {
		case err == nil:
			if resp.Status == http.StatusTooManyRequests && resp.RetryAfter != "" {
				w.Header().Set("Retry-After", resp.RetryAfter)
			}
			if resp.ContentType != "" {
				w.Header().Set("Content-Type", resp.ContentType)
			}
			w.Header().Set("X-Routed-Replica", resp.Replica)
			w.Header().Set("X-Routed-Retries", fmt.Sprintf("%d", resp.Retries))
			w.WriteHeader(resp.Status)
			w.Write(resp.Body)
		case errors.Is(err, ErrBusy), errors.Is(err, ErrNoReplicas):
			// Router-level shedding paces exactly like backend queue-full.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrExhausted):
			http.Error(w, err.Error(), http.StatusBadGateway)
		default:
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
	})
	mux.HandleFunc("/v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.Replicas())
	})
	mux.HandleFunc("/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := r.URL.Query().Get("replica")
		if name == "" {
			http.Error(w, "missing replica parameter", http.StatusBadRequest)
			return
		}
		if err := rt.Drain(r.Context(), name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "drained %s\n", name)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rt.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ListenAndServe runs the router's HTTP API on addr until ctx is
// canceled, then shuts down: the listener closes (in-flight forwards
// finish on their own contexts) and the health loop stops. ready, when
// non-nil, receives the bound address before requests are accepted.
func ListenAndServe(ctx context.Context, addr string, rt *Router, ready chan<- string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr().String()
	}
	rt.Start()
	defer rt.Close()
	srv := serve.NewHTTPServer(Handler(rt))
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	return <-errc
}
