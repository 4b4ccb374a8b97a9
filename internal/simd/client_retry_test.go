package simd_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mkos/internal/simd"
	"mkos/internal/simd/worker"
)

// scriptedServer answers each request with the next scripted response,
// repeating the last one when the script runs out, and counts attempts.
type scriptedServer struct {
	calls   atomic.Int64
	script  []scriptedResp
	httpSrv *httptest.Server
}

type scriptedResp struct {
	code   int
	reason string // ErrorResponse.Error for non-2xx
}

func newScripted(t *testing.T, script ...scriptedResp) *scriptedServer {
	t.Helper()
	s := &scriptedServer{script: script}
	s.httpSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(s.calls.Add(1)) - 1
		if i >= len(s.script) {
			i = len(s.script) - 1
		}
		resp := s.script[i]
		if resp.code < 300 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.code)
			json.NewEncoder(w).Encode(simd.Status{ID: "c1", State: simd.StateQueued})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.code)
		json.NewEncoder(w).Encode(simd.ErrorResponse{Error: resp.reason, Detail: "scripted"})
	}))
	t.Cleanup(s.httpSrv.Close)
	return s
}

func (s *scriptedServer) client() *simd.Client {
	return &simd.Client{
		BaseURL:     s.httpSrv.URL,
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
}

// TestClientRetryDiscipline pins which failures the client retries under its
// deterministic backoff and which fail fast: transient typed conflicts (409
// journal_busy, 409 not_done) and backpressure (429/503/500) retry; every
// other 4xx — including a 409 with a non-transient reason — and the 507
// full-disk rejection are answered to the caller on the first attempt.
func TestClientRetryDiscipline(t *testing.T) {
	cases := []struct {
		name      string
		script    []scriptedResp
		wantErr   string // "" = success expected
		wantCalls int64
	}{
		{
			name: "journal_busy retried to success",
			script: []scriptedResp{
				{http.StatusConflict, simd.ReasonJournalBusy},
				{http.StatusConflict, simd.ReasonJournalBusy},
				{http.StatusAccepted, ""},
			},
			wantCalls: 3,
		},
		{
			name: "not_done retried to success",
			script: []scriptedResp{
				{http.StatusConflict, simd.ReasonNotDone},
				{http.StatusAccepted, ""},
			},
			wantCalls: 2,
		},
		{
			name:      "conflict with a non-transient reason fails fast",
			script:    []scriptedResp{{http.StatusConflict, "spec_mismatch"}},
			wantErr:   "spec_mismatch",
			wantCalls: 1,
		},
		{
			name:      "no_space fails fast",
			script:    []scriptedResp{{http.StatusInsufficientStorage, simd.ReasonNoSpace}},
			wantErr:   simd.ReasonNoSpace,
			wantCalls: 1,
		},
		{
			name:      "bad_spec fails fast",
			script:    []scriptedResp{{http.StatusBadRequest, simd.ReasonBadSpec}},
			wantErr:   simd.ReasonBadSpec,
			wantCalls: 1,
		},
		{
			name: "backpressure and drain retried to success",
			script: []scriptedResp{
				{http.StatusTooManyRequests, simd.ReasonQueueFull},
				{http.StatusServiceUnavailable, simd.ReasonDraining},
				{http.StatusAccepted, ""},
			},
			wantCalls: 3,
		},
		{
			name:      "persistent journal_busy exhausts the attempt budget",
			script:    []scriptedResp{{http.StatusConflict, simd.ReasonJournalBusy}},
			wantErr:   "giving up after 6 attempts",
			wantCalls: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newScripted(t, tc.script...)
			_, err := srv.client().Submit(testCtx(t), specJSON("retry", 1, 1))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("submit failed: %v", err)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("submit error %v, want it to contain %q", err, tc.wantErr)
				}
			}
			if got := srv.calls.Load(); got != tc.wantCalls {
				t.Fatalf("server saw %d attempts, want %d", got, tc.wantCalls)
			}
		})
	}
}

// TestClientBackoffIsWorkerBackoff: the client's retry schedule is the
// supervisor's restart schedule, defaults and overflow guard included.
func TestClientBackoffIsWorkerBackoff(t *testing.T) {
	for _, c := range []*simd.Client{
		{},
		{BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		{BaseDelay: 3 * time.Second, MaxDelay: time.Second},
	} {
		for i := 0; i <= 70; i++ {
			if got, want := c.Backoff(i), worker.Backoff(i, c.BaseDelay, c.MaxDelay); got != want {
				t.Fatalf("base %v max %v: Client.Backoff(%d) = %v, worker.Backoff = %v",
					c.BaseDelay, c.MaxDelay, i, got, want)
			}
		}
	}
}

// TestWaitUpSeesLateListener: a daemon that starts answering ~10ms after
// WaitUp's first probe is seen within a few milliseconds of coming up: by
// 45ms, or, on a host so loaded that the listener itself comes up late, by
// about twice the time it took.
func TestWaitUpSeesLateListener(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	defer srv.Close()
	type up struct {
		after time.Duration
		err   error
	}
	serving := make(chan up, 1)
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		serving <- up{time.Since(start), err}
		if err == nil {
			srv.Serve(l)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := &simd.Client{BaseURL: "http://" + addr}
	err = c.WaitUp(ctx)
	took := time.Since(start)
	u := <-serving
	if u.err != nil {
		t.Fatalf("listening again on %s: %v", addr, u.err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if limit := max(45*time.Millisecond, 2*u.after+15*time.Millisecond); took >= limit {
		t.Fatalf("WaitUp took %v for a listener up after %v; want < %v", took, u.after, limit)
	}
}
