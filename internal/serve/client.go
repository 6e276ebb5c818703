package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
