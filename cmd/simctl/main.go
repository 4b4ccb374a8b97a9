// Command simctl is the simd client: it submits campaign specs to a
// running daemon and interrogates their state, with the retry discipline
// built into the client package — deterministic capped backoff through
// backpressure (429), drain (503) and daemon restarts, and idempotent
// resubmission keyed by the spec's content hash.
//
// Output is plain key=value lines so shell gates can parse it without a
// JSON tool; -json switches to the raw response body.
//
// Usage:
//
//	simctl [-addr URL] [-client NAME] [-json] COMMAND [ARGS]
//
//	  id SPEC            print the content-addressed campaign id of a spec
//	  submit SPEC        submit a spec (idempotent); prints id and state
//	  await ID           poll until the campaign is terminal, 1ms apart at first and
//	                     doubling to 150ms; rides out restarts
//	  run SPEC           submit then await
//	  status ID          one status fetch
//	  results ID         print results.json of a done campaign
//	  cancel ID          cancel a queued or running campaign
//	  stats              daemon operational counters
//	  list               every known campaign, one line each
//	  tail ID            stream a campaign's live SSE events until terminal
//	  top                periodic daemon overview (see -interval, -n)
//	  metrics            Prometheus text exposition from /v1/metrics
//	  trace              ops flight-recorder Chrome trace JSON from /v1/trace
//	  wait-up            block until the daemon answers /v1/healthz, probing 1ms
//	                     apart at first and doubling to 50ms
//	  flood -n N SPEC    N concurrent submits (see -distinct, -slow)
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"mkos/cmd/internal/runner"
	"mkos/internal/fault/chaos"
	"mkos/internal/simd"
)

var (
	addr    = flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	client  = flag.String("client", "", "fairness identity sent as X-Simd-Client")
	asJSON  = flag.Bool("json", false, "print raw JSON responses instead of key=value lines")
	timeout = flag.Duration("timeout", 0, "overall deadline (0 = none)")
)

func main() {
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	runner.Main(context.Background(), "simctl", "abandoning the request to simd", run)
}

// run executes one command. The streaming commands (tail, top) flush out as
// they go.
func run(ctx context.Context, out *bufio.Writer) error {
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := &simd.Client{BaseURL: *addr, ClientID: *client}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "id":
		id, _, err := simd.SpecID(readSpec(args))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "id=%s\n", id)
	case "submit":
		st, err := c.Submit(ctx, readSpec(args))
		if err != nil {
			return err
		}
		printStatus(out, st, *asJSON)
	case "await":
		st, err := c.Await(ctx, oneArg(args, "campaign id"))
		if err != nil {
			return err
		}
		printStatus(out, st, *asJSON)
		return notDone(st)
	case "run":
		st, err := c.Submit(ctx, readSpec(args))
		if err != nil {
			return err
		}
		if st, err = c.Await(ctx, st.ID); err != nil {
			return err
		}
		printStatus(out, st, *asJSON)
		return notDone(st)
	case "status":
		st, err := c.Status(ctx, oneArg(args, "campaign id"))
		if err != nil {
			return err
		}
		printStatus(out, st, *asJSON)
	case "results":
		blob, err := c.Results(ctx, oneArg(args, "campaign id"))
		if err != nil {
			return err
		}
		out.Write(blob)
	case "cancel":
		st, err := c.Cancel(ctx, oneArg(args, "campaign id"))
		if err != nil {
			return err
		}
		printStatus(out, st, *asJSON)
	case "stats":
		st, blob, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		printStats(out, st, blob, *asJSON)
	case "list":
		sts, err := c.List(ctx)
		if err != nil {
			return err
		}
		for _, st := range sts {
			printStatus(out, st, *asJSON)
		}
	case "tail":
		return tail(ctx, out, c, oneArg(args, "campaign id"))
	case "top":
		return top(ctx, out, c, args)
	case "metrics":
		blob, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		out.Write(blob)
	case "trace":
		blob, err := c.Trace(ctx)
		if err != nil {
			return err
		}
		out.Write(blob)
	case "wait-up":
		wctx := ctx
		if *timeout <= 0 {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
		}
		if err := c.WaitUp(wctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "up=true")
	case "flood":
		flood(ctx, out, args)
	default:
		return fmt.Errorf("unknown command %q (want id|submit|await|run|status|results|cancel|stats|list|tail|top|metrics|trace|wait-up|flood)", cmd)
	}
	return nil
}

// notDone is the error of a campaign that settled in a state other than
// done, so await and run exit 1.
func notDone(st simd.Status) error {
	if st.State == simd.StateDone {
		return nil
	}
	return fmt.Errorf("campaign %s is %s, not done", st.ID, st.State)
}

// tail streams one campaign's SSE events to out, one line per event,
// exiting 0 on a terminal "done" state, 1 on any other terminal state, and
// 1 if the stream drops before the campaign settles (daemon drain) — the
// journal still holds the progress; re-tail after the daemon returns.
func tail(ctx context.Context, out *bufio.Writer, c *simd.Client, id string) error {
	final := ""
	err := c.Tail(ctx, id, func(ev simd.Event) error {
		if *asJSON {
			blob, _ := json.Marshal(ev)
			out.Write(append(blob, '\n'))
		} else {
			printEvent(out, ev)
		}
		if ev.Type == "state" {
			final = ev.State
		}
		return out.Flush()
	})
	if errors.Is(err, simd.ErrStreamClosed) {
		return errors.New("stream closed before the campaign settled (daemon draining?); re-tail once it is back")
	}
	if err != nil {
		return err
	}
	if final != simd.StateDone {
		return fmt.Errorf("campaign %s is %s, not done", id, final)
	}
	return nil
}

func printEvent(w io.Writer, ev simd.Event) {
	switch ev.Type {
	case "trial":
		fmt.Fprintf(w, "seq=%d event=trial key=%s done=%d/%d cached=%v wall_ms=%.1f",
			ev.Seq, ev.Key, ev.Done, ev.Total, ev.Cached, ev.WallMS)
		if ev.ETAMS > 0 {
			fmt.Fprintf(w, " eta_ms=%d", ev.ETAMS)
		}
		if ev.TrialErr != "" {
			fmt.Fprintf(w, " err=%q", ev.TrialErr)
		}
		fmt.Fprintln(w)
	default:
		fmt.Fprintf(w, "seq=%d event=%s state=%s", ev.Seq, ev.Type, ev.State)
		if ev.Err != "" {
			fmt.Fprintf(w, " err=%q", ev.Err)
		}
		fmt.Fprintln(w)
	}
}

// top prints a periodic daemon overview — stats header plus one line per
// non-terminal campaign — until -n refreshes elapse or the context ends.
func top(ctx context.Context, out *bufio.Writer, c *simd.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "refresh period")
	iters := fs.Int("n", 0, "refresh count (0 = until interrupted)")
	all := fs.Bool("all", false, "also list terminal campaigns")
	fs.Parse(args)
	for i := 0; *iters <= 0 || i < *iters; i++ {
		if i > 0 {
			select {
			case <-time.After(*interval):
			case <-ctx.Done():
				return nil
			}
		}
		st, _, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		sts, err := c.List(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "-- %s draining=%v queue_depth=%d campaigns=%d executed=%d cached=%d failed=%d hit_rate=%.3f\n",
			time.Now().UTC().Format(time.TimeOnly), st.Draining, st.QueueDepth, len(sts),
			st.Trials.Executed, st.Trials.Cached, st.Trials.Failed, st.CacheHitRate)
		// Active first, then (with -all) terminal, each group sorted by id.
		sort.Slice(sts, func(a, b int) bool {
			ta, tb := sts[a].Terminal(), sts[b].Terminal()
			if ta != tb {
				return !ta
			}
			return sts[a].ID < sts[b].ID
		})
		for _, cs := range sts {
			if cs.Terminal() && !*all {
				continue
			}
			printStatus(out, cs, false)
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// flood fires N concurrent submissions at the daemon — the load-smoke and
// chaos harness primitive. With -distinct each submission rewrites the spec
// name to name-i, producing N distinct campaigns whose trials still share
// the content-addressed cache (the campaign name is not part of a trial's
// cache key); without it all N collapse onto one campaign by content hash.
// With -slow each client drains responses through a deterministic
// chaos.SlowReader, modeling slow consumers that must not wedge the daemon.
func flood(ctx context.Context, out io.Writer, args []string) {
	fs := flag.NewFlagSet("flood", flag.ExitOnError)
	n := fs.Int("n", 200, "concurrent clients")
	distinct := fs.Bool("distinct", false, "give every submission a distinct campaign name")
	slow := fs.Bool("slow", false, "read responses slowly (chaos.SlowReader)")
	seed := fs.Int64("seed", 1, "chaos plan seed for slow-reader delays")
	attempts := fs.Int("attempts", 1, "submit attempts per client (1 = surface rejections)")
	fs.Parse(args)
	spec := readSpec(fs.Args())

	plan := chaos.Plan{Seed: *seed}
	tally := chaos.Flood(*n, func(i int) error {
		body := spec
		if *distinct {
			var err error
			if body, err = renameSpec(spec, i); err != nil {
				return err
			}
		}
		c := &simd.Client{
			BaseURL:     *addr,
			ClientID:    fmt.Sprintf("flood-%03d", i),
			MaxAttempts: *attempts,
		}
		if *slow {
			c.WrapBody = func(r io.Reader) io.Reader {
				return &chaos.SlowReader{
					R:     r,
					Chunk: 1 + plan.Int("chunk", i, 0, 16),
					Delay: plan.Delay("read", i, time.Millisecond, 5*time.Millisecond),
				}
			}
		}
		_, err := c.Submit(ctx, body)
		return err
	})
	fmt.Fprintf(out, "flood_n=%d\nflood_ok=%d\nflood_failed=%d\n", *n, tally.OK, tally.Failed)
	for _, e := range tally.Errs {
		fmt.Fprintf(os.Stderr, "flood: %v\n", e)
	}
}

// renameSpec rewrites the spec's campaign name to "<name>-<i>" so flood
// -distinct submissions have distinct content hashes.
func renameSpec(spec []byte, i int) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(spec, &m); err != nil {
		return nil, err
	}
	name := "sweep"
	if raw, ok := m["name"]; ok {
		json.Unmarshal(raw, &name)
	}
	blob, err := json.Marshal(fmt.Sprintf("%s-%d", name, i))
	if err != nil {
		return nil, err
	}
	m["name"] = blob
	return json.Marshal(m)
}

// readSpec loads the spec operand: a path, or "-" for stdin.
func readSpec(args []string) []byte {
	path := oneArg(args, "spec file")
	var blob []byte
	var err error
	if path == "-" {
		blob, err = io.ReadAll(os.Stdin)
	} else {
		blob, err = os.ReadFile(path)
	}
	if err != nil {
		log.Fatal(err)
	}
	return blob
}

func oneArg(args []string, what string) string {
	if len(args) != 1 {
		log.Fatalf("expected exactly one %s operand", what)
	}
	return args[0]
}

func printStatus(w io.Writer, st simd.Status, asJSON bool) {
	if asJSON {
		blob, _ := json.MarshalIndent(st, "", "  ")
		w.Write(append(blob, '\n'))
		return
	}
	fmt.Fprintf(w, "id=%s state=%s total=%d executed=%d cached=%d failed=%d",
		st.ID, st.State, st.Total, st.Executed, st.Cached, st.Failed)
	if st.Deduped {
		fmt.Fprintf(w, " deduped=true")
	}
	if st.Restarts > 0 {
		fmt.Fprintf(w, " restarts=%d", st.Restarts)
	}
	if st.LastExit != "" {
		fmt.Fprintf(w, " last_exit=%q", st.LastExit)
	}
	if st.Breaker != "" {
		fmt.Fprintf(w, " breaker=%s", st.Breaker)
	}
	if st.Err != "" {
		fmt.Fprintf(w, " err=%q", st.Err)
	}
	fmt.Fprintln(w)
}

func printStats(w io.Writer, st simd.Stats, blob []byte, asJSON bool) {
	if asJSON {
		var out bytes.Buffer
		if json.Indent(&out, blob, "", "  ") == nil {
			out.WriteByte('\n')
			w.Write(out.Bytes())
			return
		}
		w.Write(blob)
		return
	}
	fmt.Fprintf(w, "draining=%v queue_depth=%d\n", st.Draining, st.QueueDepth)
	fmt.Fprintf(w, "admitted=%d deduped=%d resumed=%d\n", st.Admitted, st.Deduped, st.Resumed)
	fmt.Fprintf(w, "rejected_total=%d rejected_queue_full=%d rejected_client_backlog=%d rejected_draining=%d rejected_no_space=%d\n",
		st.Rejected.Total(), st.Rejected.QueueFull, st.Rejected.ClientBacklog, st.Rejected.Draining, st.Rejected.NoSpace)
	fmt.Fprintf(w, "trials_executed=%d trials_cached=%d trials_failed=%d cache_hit_rate=%.3f\n",
		st.Trials.Executed, st.Trials.Cached, st.Trials.Failed, st.CacheHitRate)
	fmt.Fprintf(w, "latency_count=%d latency_p50_ms=%.1f latency_p90_ms=%.1f latency_p99_ms=%.1f latency_max_ms=%.1f\n",
		st.SubmitToResultMS.Count, st.SubmitToResultMS.P50, st.SubmitToResultMS.P90,
		st.SubmitToResultMS.P99, st.SubmitToResultMS.Max)
	// Campaign state counts in fixed order (stable output for shell parsing).
	for _, state := range []string{"queued", "running", "done", "failed", "canceled", "interrupted", "crash_loop"} {
		fmt.Fprintf(w, "campaigns_%s=%d ", state, st.Campaigns[state])
	}
	fmt.Fprintln(w)
}
