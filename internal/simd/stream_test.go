package simd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mkos/internal/simd"
)

// journalTrialKeys reads the campaign journals under the store's cache dir
// and returns every journaled trial key in file line order — the durable
// record the SSE stream's trial-event order must match exactly.
func journalTrialKeys(t *testing.T, store string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(store, "cache", "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("journal line: %v", err)
			}
			keys = append(keys, e.Key)
		}
		f.Close()
	}
	return keys
}

// TestTailOrderMatchesJournal runs a multi-trial campaign at full worker
// parallelism, tails its replayed event stream, and asserts three stream
// invariants: seq numbers are dense from 1, the trial events' key order is
// byte-for-byte the journal's line order (both are emitted under the same
// lock), and the stream ends with a terminal state event.
func TestTailOrderMatchesJournal(t *testing.T) {
	h := newHarness(t)
	store := t.TempDir()
	d := startDaemon(t, simd.Options{Store: store, Worker: h.worker(), Workers: 4})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("tail")

	st, err := c.Submit(ctx, specJSON("stream", 7, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	var evs []simd.Event
	if err := c.Tail(ctx, st.ID, func(ev simd.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty replay")
	}
	var streamKeys []string
	var done int
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want dense numbering from 1", i, ev.Seq)
		}
		if ev.ID != st.ID {
			t.Fatalf("event %d carries campaign id %q, want %q", i, ev.ID, st.ID)
		}
		if ev.Type == "trial" {
			done++
			if ev.Done != done {
				t.Fatalf("trial event %d reports done=%d, want %d", i, ev.Done, done)
			}
			if ev.Total != 12 {
				t.Fatalf("trial event %d reports total=%d, want 12", i, ev.Total)
			}
			streamKeys = append(streamKeys, ev.Key)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != simd.StateDone {
		t.Fatalf("stream ends with %s/%s, want a terminal state event", last.Type, last.State)
	}
	jKeys := journalTrialKeys(t, store)
	if len(jKeys) != 12 || len(streamKeys) != 12 {
		t.Fatalf("got %d journal keys and %d stream keys, want 12 each", len(jKeys), len(streamKeys))
	}
	for i := range jKeys {
		if jKeys[i] != streamKeys[i] {
			t.Fatalf("order diverges at %d: journal %q vs stream %q\njournal: %v\nstream: %v",
				i, jKeys[i], streamKeys[i], jKeys, streamKeys)
		}
	}
}

// TestTailLiveCompletion subscribes while the campaign is still blocked,
// then releases it: the live stream must deliver the remaining trial events
// and terminate cleanly on the done state.
func TestTailLiveCompletion(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker(), Workers: 2})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("live")

	st, err := c.Submit(ctx, specJSON("block-live", 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(1) // campaign is running and parked

	tailed := make(chan error, 1)
	var evs []simd.Event
	go func() {
		tailed <- c.Tail(ctx, st.ID, func(ev simd.Event) error {
			evs = append(evs, ev)
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the subscriber attach mid-run
	h.release()

	if err := <-tailed; err != nil {
		t.Fatalf("tail: %v", err)
	}
	trials := 0
	for _, ev := range evs {
		if ev.Type == "trial" {
			trials++
		}
	}
	if trials != 4 {
		t.Fatalf("live stream delivered %d trial events, want 4", trials)
	}
	if last := evs[len(evs)-1]; last.State != simd.StateDone {
		t.Fatalf("live stream ended on state %q, want done", last.State)
	}
}

// TestTailClientCancel verifies a canceled consumer detaches cleanly: Tail
// returns the context error, and the daemon goes on to finish the campaign
// as if the subscriber never existed.
func TestTailClientCancel(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker()})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("cancel")

	st, err := c.Submit(ctx, specJSON("block-cancel", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(1)

	tctx, cancel := context.WithCancel(ctx)
	tailed := make(chan error, 1)
	go func() {
		tailed <- c.Tail(tctx, st.ID, func(simd.Event) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-tailed; !errors.Is(err, context.Canceled) {
		t.Fatalf("tail after client cancel: %v, want context.Canceled", err)
	}

	h.release()
	if st, err = c.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("campaign after subscriber left: %v/%v, want done", st.State, err)
	}
}

// TestTailDaemonDrain verifies the drain contract for live streams: a
// SIGTERM-style drain ends every subscriber's stream cleanly (no hang), and
// since the campaign never settled, the client sees ErrStreamClosed — the
// signal to re-tail after the next incarnation resumes the campaign.
func TestTailDaemonDrain(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		DrainGrace: 10 * time.Millisecond,
	})
	ctx := testCtx(t)
	c := d.client("drain")

	st, err := c.Submit(ctx, specJSON("block-drain", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(1)

	tailed := make(chan error, 1)
	go func() {
		tailed <- c.Tail(ctx, st.ID, func(simd.Event) error { return nil })
	}()
	time.Sleep(20 * time.Millisecond)
	d.srv.Drain()
	select {
	case err := <-tailed:
		if !errors.Is(err, simd.ErrStreamClosed) {
			t.Fatalf("tail after drain: %v, want ErrStreamClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail did not terminate on daemon drain")
	}
	d.http.Close()
}

// TestHealthzReportsDraining pins the load-balancer contract: /v1/healthz
// answers 200 while serving and flips to 503 with draining:true the moment
// drain begins, so orchestrators stop routing to a daemon on its way out.
func TestHealthzReportsDraining(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{
		Store: t.TempDir(), Worker: h.worker(),
		DrainGrace: 10 * time.Millisecond,
	})
	ctx := testCtx(t)
	c := d.client("hz")

	health := func() (int, map[string]any) {
		resp, err := http.Get(d.http.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := health(); code != http.StatusOK || body["draining"] != false {
		t.Fatalf("serving healthz: %d %v, want 200 draining=false", code, body)
	}

	if _, err := c.Submit(ctx, specJSON("block-hz", 4, 2)); err != nil {
		t.Fatal(err)
	}
	h.awaitEntries(1)
	drained := make(chan struct{})
	go func() { d.srv.Drain(); close(drained) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := health()
		if code == http.StatusServiceUnavailable {
			if body["draining"] != true || body["state"] != "draining" {
				t.Fatalf("draining healthz body: %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.release()
	<-drained
	d.http.Close()
}

// TestJournalBusyIs409 pins the deployment-overlap story: a second daemon
// on the same store that reaches for a journal another daemon holds fails
// the campaign with the typed journal_busy reason, results answer 409 (not
// a generic 500), and resubmitting requeues the campaign so it can succeed
// once the first daemon lets go.
func TestJournalBusyIs409(t *testing.T) {
	h1 := newHarness(t)
	store := t.TempDir()
	d1 := startDaemon(t, simd.Options{Store: store, Worker: h1.worker()})
	ctx := testCtx(t)
	c1 := d1.client("owner")

	// Daemon 1 parks the campaign mid-run, holding its journal's flock.
	st, err := c1.Submit(ctx, specJSON("block-busy", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	h1.awaitEntries(1)

	// Daemon 2 on the same store re-admits the (persisted, running) campaign
	// and hits the held flock when it dispatches it.
	h2 := newHarness(t)
	d2 := startDaemon(t, simd.Options{Store: store, Worker: h2.worker()})
	c2 := d2.client("intruder")
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := c2.Status(ctx, st.ID)
		if err == nil && got.State == simd.StateFailed {
			if !strings.Contains(got.Err, "journal") {
				t.Fatalf("failed campaign error %q does not mention the journal", got.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon 2 never hit the busy journal (state %+v, err %v)", got, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Results must be the typed 409, and a single client attempt must see it.
	one := d2.client("intruder")
	one.MaxAttempts = 1
	if _, err := one.Results(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "HTTP 409") ||
		!strings.Contains(err.Error(), simd.ReasonJournalBusy) {
		t.Fatalf("results on busy campaign: %v, want typed 409 %s", err, simd.ReasonJournalBusy)
	}

	// Let daemon 1 finish and release the flock; a resubmission to daemon 2
	// requeues the campaign and this time it completes (all trials cached).
	h1.release()
	if got, err := c1.Await(ctx, st.ID); err != nil || got.State != simd.StateDone {
		t.Fatalf("daemon 1 completion: %v/%v", got.State, err)
	}
	d1.stop()

	resub, err := c2.Submit(ctx, specJSON("block-busy", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if resub.ID != st.ID {
		t.Fatalf("resubmission changed identity: %s vs %s", resub.ID, st.ID)
	}
	got, err := c2.Await(ctx, st.ID)
	if err != nil || got.State != simd.StateDone {
		t.Fatalf("requeued campaign: %+v err=%v, want done", got, err)
	}
	if got.Executed != 0 || got.Cached != 2 {
		t.Fatalf("requeued campaign executed=%d cached=%d, want 0/2 (daemon 1's journal feeds it)", got.Executed, got.Cached)
	}
	d2.stop()
}

// TestMetricsAndTrace validates the two pull-based observability surfaces
// after real traffic: /v1/metrics is well-formed Prometheus text with
// coherent trial counters, and /v1/trace is Chrome trace JSON whose spans
// cover the causal chain campaign → queue-wait → run → trial with correct
// parentage, with the worker's spawn and reap spans under the run span.
func TestMetricsAndTrace(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker()})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("obs")

	st, err := c.Submit(ctx, specJSON("obs", 9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Await(ctx, st.ID); err != nil || got.State != simd.StateDone {
		t.Fatalf("campaign: %v/%v", got.State, err)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	text := string(metrics)
	for _, want := range []string{
		"# TYPE simd_admitted_total counter",
		"simd_admitted_total 1",
		"simd_trials_executed_total 5",
		"# TYPE simd_queue_depth gauge",
		"sweep_trials_executed_total 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) != 2 {
			t.Errorf("exposition line %d is not `name value`: %q", i+1, line)
		}
	}

	blob, err := c.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]map[string]any{}
	trials := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "campaign", "queue-wait", "run":
			spans[ev.Name] = ev.Args
		case "trial":
			trials++
		}
	}
	for _, name := range []string{"campaign", "queue-wait", "run"} {
		if spans[name] == nil {
			t.Fatalf("trace has no %q span; spans seen: %v", name, spanNames(trace.TraceEvents))
		}
	}
	if trials != 5 {
		t.Errorf("trace has %d trial spans, want 5", trials)
	}
	// Causal chain: queue-wait and run are children of the campaign span.
	root := fmt.Sprint(spans["campaign"]["span"])
	for _, child := range []string{"queue-wait", "run"} {
		if parent := fmt.Sprint(spans[child]["parent"]); parent != root {
			t.Errorf("%s span has parent %s, want campaign span %s", child, parent, root)
		}
	}

	// The isolation cost: spawn (exec to hello) and reap (done to exit
	// collected) are children of the run span. The reap may end after the
	// campaign settles; Drain joins it.
	d.stop()
	var buf bytes.Buffer
	if err := d.srv.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var drained struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &drained); err != nil {
		t.Fatalf("drained trace is not valid JSON: %v", err)
	}
	run := fmt.Sprint(spans["run"]["span"])
	for _, name := range []string{"spawn", "reap"} {
		n := 0
		for _, ev := range drained.TraceEvents {
			if ev.Ph == "X" && ev.Name == name {
				n++
				if parent := fmt.Sprint(ev.Args["parent"]); parent != run {
					t.Errorf("%s span has parent %s, want run span %s", name, parent, run)
				}
			}
		}
		if n != 1 {
			t.Errorf("drained trace has %d %q spans, want 1; spans seen: %v", n, name, spanNames(drained.TraceEvents))
		}
	}
}

// TestAdmitSpanPrecedesQueueWait checks the span order of one campaign in
// /v1/trace: the admission's persisted writes are an admit span under the
// campaign, and queue-wait opens only after admit has ended and ends
// before the run starts.
func TestAdmitSpanPrecedesQueueWait(t *testing.T) {
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: t.TempDir(), Worker: h.worker()})
	defer d.stop()
	ctx := testCtx(t)
	c := d.client("order")
	st, err := c.Submit(ctx, specJSON("order", 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Await(ctx, st.ID); err != nil || got.State != simd.StateDone {
		t.Fatalf("campaign: %v/%v", got.State, err)
	}
	blob, err := c.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type span struct {
		start, end float64
		id, parent string
	}
	spans := map[string]span{}
	for _, ev := range trace.TraceEvents {
		switch ev.Name {
		case "campaign", "admit", "queue-wait", "run":
			if ev.Ph == "X" {
				spans[ev.Name] = span{ev.TS, ev.TS + ev.Dur, fmt.Sprint(ev.Args["span"]), fmt.Sprint(ev.Args["parent"])}
			}
		}
	}
	for _, name := range []string{"campaign", "admit", "queue-wait", "run"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("trace has no %q span", name)
		}
	}
	for _, child := range []string{"admit", "queue-wait"} {
		if spans[child].parent != spans["campaign"].id {
			t.Errorf("%s span has parent %s, want the campaign span %s", child, spans[child].parent, spans["campaign"].id)
		}
	}
	// The trace prints times in µs with ns digits; allow one ns of rounding.
	const ns = 0.001
	if a, q := spans["admit"], spans["queue-wait"]; a.end > q.start+ns {
		t.Errorf("admit ends at %.3f µs, after queue-wait starts at %.3f µs", a.end, q.start)
	}
	if q, r := spans["queue-wait"], spans["run"]; q.end > r.start+ns {
		t.Errorf("queue-wait ends at %.3f µs, after run starts at %.3f µs", q.end, r.start)
	}
}

func spanNames(evs []struct {
	Ph   string         `json:"ph"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}) []string {
	var names []string
	for _, ev := range evs {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	return names
}
