package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mkos/internal/simd/worker"
)

// Client talks to a simd daemon with the retry discipline a shared-machine
// campaign client needs: deterministic capped-backoff retries on typed
// rejections (429 backpressure, 503 drain) and on transport errors — the
// daemon being down mid-restart is an expected, recoverable condition here,
// not a failure — and idempotent resubmission, which is safe because a
// campaign's identity is the content hash of its spec: a resubmitted spec
// lands on the same campaign, never a duplicate execution.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ClientID is the fairness identity sent as X-Simd-Client; empty lets
	// the daemon key fairness on the peer address.
	ClientID string
	// HTTP is the transport; nil uses a default client with no global
	// timeout (individual calls are bounded by their contexts).
	HTTP *http.Client

	// MaxAttempts bounds one operation's tries; <= 0 means 10.
	MaxAttempts int
	// BaseDelay seeds the deterministic backoff schedule: attempt n waits
	// min(BaseDelay·2ⁿ, MaxDelay). No jitter — a reproducible client
	// produces reproducible load, which is what the chaos and flood
	// harnesses need. <= 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the schedule; <= 0 means 2s.
	MaxDelay time.Duration
	// PollInterval caps the wait between Await's status polls, which
	// starts at 1ms and doubles (see pollDelay); <= 0 means 150ms.
	PollInterval time.Duration

	// WrapBody, when non-nil, wraps every response body reader before it is
	// consumed — the seam the slow-client chaos injector plugs into.
	WrapBody func(io.Reader) io.Reader
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 10
}

// Backoff returns the deterministic delay before retry attempt i (0-based):
// min(BaseDelay·2ⁱ, MaxDelay), no jitter, the schedule worker.Backoff
// computes. Exported so harnesses can predict a client's exact retry
// schedule.
func (c *Client) Backoff(i int) time.Duration {
	return worker.Backoff(i, c.BaseDelay, c.MaxDelay)
}

// pollDelay is the wait before probe i+1 of a poll loop (WaitUp, Await):
// min(1ms·2ⁱ, max). The first probes follow each other closely, so a daemon
// that comes up or a campaign that settles is seen within about as long
// again as it took, and a long wait costs no more than one probe per max.
func pollDelay(i int, max time.Duration) time.Duration {
	return worker.Backoff(i, time.Millisecond, max)
}

func (c *Client) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 150 * time.Millisecond
}

// apiError is a typed non-2xx response.
type apiError struct {
	code int
	resp ErrorResponse
}

func (e *apiError) Error() string {
	return fmt.Sprintf("simd: HTTP %d: %s%s", e.code, e.resp.Error, errSuffix(e.resp.Detail))
}

// retryable reports whether the failure is worth another attempt: transport
// errors (daemon down or restarting) and explicit backpressure are; typed
// client mistakes (bad spec, unknown id) are not. 409s are retried only for
// their transient typed reasons — journal_busy (a deployment overlap that
// clears when the other daemon exits) and not_done (results polled a moment
// early) — so a conflict that will never resolve by waiting fails fast
// instead of burning the whole backoff schedule. 507 (disk full) never
// retries: it clears when an operator frees space, not when the client waits.
func retryable(err error) bool {
	var ae *apiError
	if errors.As(err, &ae) {
		switch ae.code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusInternalServerError:
			return true
		case http.StatusConflict:
			return ae.resp.Error == ReasonJournalBusy || ae.resp.Error == ReasonNotDone
		}
		return false
	}
	return err != nil // transport-level
}

// do issues one request and decodes the response into out (when non-nil),
// returning the raw body bytes.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if c.ClientID != "" {
		req.Header.Set("X-Simd-Client", c.ClientID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var r io.Reader = resp.Body
	if c.WrapBody != nil {
		r = c.WrapBody(resp.Body)
	}
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		var er ErrorResponse
		json.Unmarshal(blob, &er)
		return blob, &apiError{code: resp.StatusCode, resp: er}
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return blob, fmt.Errorf("simd: decoding %s %s response: %w", method, path, err)
		}
	}
	return blob, nil
}

// retry runs op under the deterministic backoff schedule until it succeeds,
// exhausts MaxAttempts, or the context ends.
func (c *Client) retry(ctx context.Context, op func() error) error {
	var err error
	for i := 0; i < c.attempts(); i++ {
		if err = op(); err == nil || !retryable(err) {
			return err
		}
		select {
		case <-time.After(c.Backoff(i)):
		case <-ctx.Done():
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), err)
		}
	}
	return fmt.Errorf("simd: giving up after %d attempts: %w", c.attempts(), err)
}

// Submit sends a raw campaign spec, retrying through backpressure, drain and
// daemon restarts. Resubmission is idempotent: the spec's content hash is
// its campaign identity, so a retry after a lost response converges on the
// campaign the first attempt created.
func (c *Client) Submit(ctx context.Context, spec []byte) (Status, error) {
	var st Status
	err := c.retry(ctx, func() error {
		_, err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &st)
		return err
	})
	return st, err
}

// Status fetches a campaign's current status (one attempt; Await wraps it
// with retries).
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Await polls until the campaign reaches a terminal state, waiting
// pollDelay(i, PollInterval) after poll i: 1ms, 2ms, 4ms and so on up to
// PollInterval. Transport errors are absorbed indefinitely (bounded only by
// ctx): the daemon dying and coming back mid-campaign is precisely the
// scenario a crash-tolerant client rides out.
func (c *Client) Await(ctx context.Context, id string) (Status, error) {
	for i := 0; ; i++ {
		st, err := c.Status(ctx, id)
		switch {
		case err == nil && st.Terminal():
			return st, nil
		case err != nil && !retryable(err):
			return st, err
		}
		select {
		case <-time.After(pollDelay(i, c.poll())):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Results fetches the deterministic results.json of a done campaign,
// retrying through restarts.
func (c *Client) Results(ctx context.Context, id string) ([]byte, error) {
	var blob []byte
	err := c.retry(ctx, func() error {
		var err error
		blob, err = c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/results", nil, nil)
		return err
	})
	return blob, err
}

// Cancel requests cancellation of a queued or running campaign.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Stats fetches the daemon's operational counters.
func (c *Client) Stats(ctx context.Context) (Stats, []byte, error) {
	var st Stats
	blob, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, blob, err
}

// List fetches every known campaign's status, sorted by id.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var sts []Status
	_, err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &sts)
	return sts, err
}

// Metrics fetches the daemon's Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/metrics", nil, nil)
}

// Trace fetches the daemon's ops flight recorder as Chrome trace_event
// JSON.
func (c *Client) Trace(ctx context.Context) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/trace", nil, nil)
}

// ErrStreamClosed is returned by Tail when the event stream ends before the
// campaign reaches a terminal state — the daemon drained, or the connection
// dropped. The campaign itself is typically still resumable; re-Tail after
// the daemon returns.
var ErrStreamClosed = errors.New("simd: event stream closed before a terminal state")

// Tail subscribes to a campaign's SSE progress stream and calls fn for
// every event — first the replayed history, then live events — returning
// nil once a terminal state event arrives, ctx.Err() if the context ends,
// ErrStreamClosed if the daemon closes the stream early (drain), or fn's
// error if it aborts the tail.
func (c *Client) Tail(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if c.ClientID != "" {
		req.Header.Set("X-Simd-Client", c.ClientID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		blob, _ := io.ReadAll(resp.Body)
		var er ErrorResponse
		json.Unmarshal(blob, &er)
		return &apiError{code: resp.StatusCode, resp: er}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("simd: decoding event: %w", err)
			}
			data = ""
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Type == "state" {
				if st := (Status{State: ev.State}); st.Terminal() {
					return nil
				}
			}
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return ErrStreamClosed
}

// WaitUp polls /v1/healthz until the daemon answers or ctx ends — the
// start-up barrier scripts need between launching the daemon and flooding
// it. It waits pollDelay(i, 50ms) after probe i (1ms, 2ms, 4ms, ... 32ms,
// then 50ms), so a daemon that answers a few milliseconds after exec is
// seen a few milliseconds later.
func (c *Client) WaitUp(ctx context.Context) error {
	for i := 0; ; i++ {
		if _, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil); err == nil {
			return nil
		}
		select {
		case <-time.After(pollDelay(i, 50*time.Millisecond)):
		case <-ctx.Done():
			return fmt.Errorf("simd: daemon never came up: %w", ctx.Err())
		}
	}
}
