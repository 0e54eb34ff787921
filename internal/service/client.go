package service

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

// Client is a minimal typed client for the daemon; the package's tests
// drive every endpoint through it. It surfaces backpressure
// explicitly: a 429 decodes into *RetryError carrying the server's
// Retry-After hint.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ID, when set, is sent as X-Reprod-Client so the daemon's fair
	// scheduler sees one logical client across connections.
	ID string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// RetryError is a 429 rejection with the server's backoff hint.
type RetryError struct {
	After   time.Duration
	Message string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("service: rejected, retry after %v: %s", e.After, e.Message)
}

// StatusError is any other non-2xx response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Code, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// post sends a JSON body and decodes a JSON response into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.ID != "" {
		req.Header.Set("X-Reprod-Client", c.ID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// get fetches a JSON endpoint into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	if c.ID != "" {
		req.Header.Set("X-Reprod-Client", c.ID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// decodeResponse maps the HTTP layer back to typed results and errors.
func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		after := 1
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			after = v
		}
		return &RetryError{After: time.Duration(after) * time.Second, Message: e.Error}
	}
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		msg := ""
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		} else {
			msg = string(bytes.TrimSpace(raw))
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Run resolves one spec.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	var out RunResponse
	if err := c.post(ctx, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep resolves an app × knob × values matrix.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	var out SweepResponse
	if err := c.post(ctx, "/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Experiment renders one paper artifact.
func (c *Client) Experiment(ctx context.Context, req ExperimentRequest) (*ExperimentResponse, error) {
	var out ExperimentResponse
	if err := c.post(ctx, "/v1/experiment", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the daemon's aggregate counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.get(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
