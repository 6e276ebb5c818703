package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Handler builds the daemon's HTTP API over a scheduler:
//
//	POST /v1/jobs     submit a job (Params JSON), respond with Result JSON,
//	                  or the ResultMediaType frame when Accept names it
//	GET  /v1/devices  served devices with live queue depths
//	GET  /v1/stats    per-device warmth counters (Stats JSON)
//	GET  /metrics     Prometheus text exposition
//	GET  /healthz     liveness
func Handler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if r.ContentLength > maxJobBody {
			http.Error(w, "job body too large", http.StatusRequestEntityTooLarge)
			return
		}
		var p Params
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&p); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, "job body too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		res, err := s.Do(r.Context(), p)
		switch {
		case err == nil && acceptsFrame(r.Header.Get("Accept")):
			writeFrame(w, res)
		case err == nil:
			writeJSON(w, http.StatusOK, res)
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.RetryAfter(p.Device).Seconds())))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrStopped):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away; the status is never seen but close the
			// exchange cleanly.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/devices", func(w http.ResponseWriter, r *http.Request) {
		type devInfo struct {
			Name       string `json:"name"`
			QueueDepth int    `json:"queue_depth"`
		}
		var out []devInfo
		for _, d := range s.Devices() {
			out = append(out, devInfo{Name: d, QueueDepth: s.QueueDepth(d)})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics().Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeFrame(w http.ResponseWriter, res *Result) {
	frame, err := encodeFrame(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ResultMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// Connection timeouts for the daemon's and the router's HTTP servers. A
// client gets readHeaderTimeout to send its request headers and an idle
// keep-alive connection is closed after idleTimeout. There is no write
// timeout: an n=1024 job can legitimately run for seconds.
const idleTimeout = 2 * time.Minute

// readHeaderTimeout is a variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// maxJobBody is the daemon's job body cap, MaxJobBody; a variable only so
// tests can shrink it.
var maxJobBody int64 = MaxJobBody

// NewHTTPServer returns an http.Server for h with the service's
// connection timeouts, so a client that opens a connection and stalls
// cannot hold it forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Serve runs the HTTP API on l until ctx is canceled, then drains: new
// submissions get 503 while queued and in-flight jobs complete, and the
// HTTP server shuts down once the queues are empty (bounded by
// drainTimeout). The scheduler must not be started yet; Serve starts it.
func Serve(ctx context.Context, l net.Listener, s *Scheduler, drainTimeout time.Duration) error {
	s.Start()
	srv := NewHTTPServer(Handler(s))
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
		s.Stop()
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errc
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	return nil
}

// ListenAndServe is Serve on a fresh TCP listener. ready, when non-nil,
// receives the bound address (useful with ":0") before requests are
// accepted.
func ListenAndServe(ctx context.Context, addr string, s *Scheduler, drainTimeout time.Duration, ready chan<- string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr().String()
	}
	return Serve(ctx, l, s, drainTimeout)
}
