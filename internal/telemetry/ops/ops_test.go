package ops

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// decodeTrace parses the Chrome-trace envelope into raw event maps.
func decodeTrace(t *testing.T, blob []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, blob)
	}
	return doc.TraceEvents
}

func eventArg(ev map[string]any, key string) string {
	args, _ := ev["args"].(map[string]any)
	v, _ := args[key].(string)
	return v
}

func findEvent(events []map[string]any, name string) map[string]any {
	for _, ev := range events {
		if ev["name"] == name {
			return ev
		}
	}
	return nil
}

func TestSpanCausality(t *testing.T) {
	tr := New(0)
	ctx := WithRequest(Attach(context.Background(), tr), "req-42")

	ctx, root := Start(ctx, "submit")
	ctx, child := Start(ctx, "admission")
	_, trial := StartTrack(ctx, "trial")
	Instant(ctx, "queued")
	trial.End()
	child.End(Arg{Key: "outcome", Val: "ok"})
	root.End()

	if root.ID() == 0 || child.ID() == 0 || trial.ID() == 0 {
		t.Fatalf("span ids must be nonzero: root=%d child=%d trial=%d", root.ID(), child.ID(), trial.ID())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())

	sub := findEvent(events, "submit")
	adm := findEvent(events, "admission")
	tri := findEvent(events, "trial")
	inst := findEvent(events, "queued")
	if sub == nil || adm == nil || tri == nil || inst == nil {
		t.Fatalf("missing events in trace: %s", buf.String())
	}

	// Causality: admission parents under submit, trial under admission.
	if got, want := eventArg(adm, "parent"), strconv.FormatInt(root.ID(), 10); got != want {
		t.Errorf("admission parent = %q, want %q", got, want)
	}
	if got, want := eventArg(tri, "parent"), strconv.FormatInt(child.ID(), 10); got != want {
		t.Errorf("trial parent = %q, want %q", got, want)
	}
	if got := eventArg(sub, "parent"); got != "0" {
		t.Errorf("root parent = %q, want \"0\"", got)
	}

	// Request id propagates to every descendant.
	for _, ev := range []map[string]any{sub, adm, tri, inst} {
		if got := eventArg(ev, "request"); got != "req-42" {
			t.Errorf("%v request = %q, want req-42", ev["name"], got)
		}
	}

	// Track discipline: sequential child shares the root lane, the
	// concurrent trial gets its own.
	if sub["tid"] != adm["tid"] {
		t.Errorf("admission tid %v != submit tid %v (sequential child must share lane)", adm["tid"], sub["tid"])
	}
	if tri["tid"] == sub["tid"] {
		t.Errorf("trial tid %v == submit tid (StartTrack must open a fresh lane)", tri["tid"])
	}

	// The final args on End land in the export.
	if got := eventArg(adm, "outcome"); got != "ok" {
		t.Errorf("admission outcome arg = %q, want ok", got)
	}

	// Metadata names both the process and each track.
	if findEvent(events, "process_name") == nil {
		t.Error("trace has no process_name metadata")
	}
	if findEvent(events, "thread_name") == nil {
		t.Error("trace has no thread_name metadata")
	}
}

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	ctx, s := Start(ctx, "untraced")
	if s != nil {
		t.Fatalf("Start without a tracer returned %v, want nil span", s)
	}
	s.End()                 // must not panic
	Instant(ctx, "nothing") // must not panic
	_, s2 := StartTrack(ctx, "untracked")
	s2.End()
	if FromContext(ctx) != nil {
		t.Error("FromContext on a bare context should be nil")
	}
	var tr *Tracer
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer accessors must return zero")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	decodeTrace(t, buf.Bytes())
}

func TestCapacityDrops(t *testing.T) {
	tr := New(2)
	ctx := Attach(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, s := Start(ctx, "op")
		s.End()
	}
	if got := tr.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 (capacity)", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ops-events-dropped") {
		t.Error("export does not surface the drop count")
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(0)
	ctx := Attach(context.Background(), tr)
	_, s := Start(ctx, "once")
	s.End()
	s.End()
	if got := tr.Len(); got != 1 {
		t.Errorf("double End recorded %d events, want 1", got)
	}
}

func TestWithSpanReparenting(t *testing.T) {
	tr := New(0)
	ctx := Attach(context.Background(), tr)
	_, parent := Start(ctx, "campaign")

	// A fresh context (the dispatcher's run context) re-adopts the span.
	runCtx := WithSpan(Attach(context.Background(), tr), parent)
	_, child := Start(runCtx, "run")
	child.End()
	parent.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	run := findEvent(events, "run")
	if got, want := eventArg(run, "parent"), strconv.FormatInt(parent.ID(), 10); got != want {
		t.Errorf("re-parented run span parent = %q, want %q", got, want)
	}
}
