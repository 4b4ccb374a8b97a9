package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mkos/internal/apps"
	"mkos/internal/simd"
	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

const (
	// serviceRoundS is roughly how long one round (three new campaigns and
	// one resubmission) takes on a 2-vCPU host; --seconds is converted into
	// whole rounds with it.
	serviceRoundS = 0.55
	// serviceUpTimeout bounds daemon start-up to a healthy /v1/healthz.
	serviceUpTimeout = 30 * time.Second
	// serviceStopTimeout bounds the SIGTERM drain before SIGKILL.
	serviceStopTimeout = 15 * time.Second
)

// serviceUnits generates the run's traffic: every round of four holds one
// new campaign per Fugaku app and one resubmission of a campaign that
// already finished in this run, in seeded order (the first unit of the run
// is always new). A new campaign is one tiny Fugaku figure point at 16, 32
// or 64 nodes, the cheapest range: the apps scale strongly, so fewer nodes
// mean longer per-node noise horizons, and a campaign's cost depends on its
// node count. So node counts rotate in a Latin square rather than being
// drawn: every three rounds run each app once at each count, and runs with
// different seeds do the same mix of model work. The seed picks the order,
// the rotation's starting counts and every campaign seed. orig[i] is the
// unit a resubmission repeats, or -1 for a new campaign.
func serviceUnits(seed int64, rounds int) (specs [][]byte, orig []int) {
	rng := rand.New(rand.NewSource(seed))
	suite := apps.FugakuSuite()
	nodes := []int{16, 32, 64}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	var fresh []int
	for r := 0; r < rounds; r++ {
		round := append([]string(nil), suite...) // "" marks the resubmission
		round = append(round, "")
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		if r == 0 && round[0] == "" {
			round[0], round[1] = round[1], round[0]
		}
		for _, app := range round {
			i := len(specs)
			if app == "" {
				j := fresh[rng.Intn(len(fresh))]
				specs, orig = append(specs, specs[j]), append(orig, j)
				continue
			}
			cs := 1 + rng.Int63n(1<<40)
			specs = append(specs, []byte(fmt.Sprintf(
				`{"name":"perfbench-%d-%d","seed":%d,"seeds":[%d],"apps":[{"platform":"fugaku","app":%q,"nodes":[%d]}]}`,
				seed, i, cs, cs, app, nodes[(slices.Index(suite, app)+r)%len(nodes)])))
			orig = append(orig, -1)
			fresh = append(fresh, i)
		}
	}
	return specs, orig
}

// service is one closed-loop client against a fresh cmd/simd daemon with
// its defaults (-isolate: each campaign in a supervised worker process),
// one sweep worker and one campaign at a time.
type service struct {
	seed   int64
	rounds int
	bin    string
	dir    string

	specs [][]byte
	orig  []int

	rep    int
	cmd    *exec.Cmd
	exited chan struct{}
	cl     *simd.Client

	results [][]byte
	timing  []svcTiming
}

// svcTiming splits one round trip; all times are from the start of Submit.
type svcTiming struct {
	submit, running, total, results time.Duration
	execMS                          float64
	deduped                         bool
}

func newService(seed int64, seconds int, bin string) *service {
	return &service{
		seed: seed, rounds: max(1, int(math.Round(float64(seconds)/serviceRoundS))), bin: bin,
		dir: filepath.Join(stateDir, fmt.Sprintf("service-%d", os.Getpid())),
	}
}

func (w *service) setUp(ctx context.Context) error {
	if _, err := w.stopDaemon(); err != nil {
		return err
	}
	w.rep++
	w.specs, w.orig = serviceUnits(w.seed, w.rounds)
	w.results = make([][]byte, len(w.specs))
	w.timing = make([]svcTiming, len(w.specs))
	if err := w.startDaemon(ctx); err != nil {
		return err
	}
	warm := []byte(fmt.Sprintf(`{"name":"perfbench-warmup-%d","seed":%d,"seeds":[%d],"apps":[{"platform":"fugaku","app":"GAMERA","nodes":[16]}]}`,
		w.seed, w.seed, w.seed))
	_, _, err := w.roundTrip(ctx, warm, nil, -1)
	return err
}

func (w *service) startDaemon(ctx context.Context) error {
	store, err := filepath.Abs(filepath.Join(w.dir, fmt.Sprintf("store%d", w.rep)))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(store, 0o755); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(w.dir, fmt.Sprintf("simd%d.log", w.rep)))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(w.bin, "-store", store, "-addr", addr, "-j", "1", "-concurrency", "1", "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this benchmark dies without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting simd: %w", err)
	}
	w.cmd, w.exited = cmd, make(chan struct{})
	go func() {
		cmd.Wait()
		close(w.exited)
	}()
	w.cl = &simd.Client{BaseURL: "http://" + addr, ClientID: "perfbench"}
	upCtx, cancel := context.WithTimeout(ctx, serviceUpTimeout)
	defer cancel()
	up := make(chan error, 1)
	go func() { up <- w.cl.WaitUp(upCtx) }()
	select {
	case err := <-up:
		return err
	case <-w.exited:
		cancel()
		<-up
		return fmt.Errorf("simd exited during start-up; see %s", logf.Name())
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stopDaemon drains the daemon with SIGTERM (SIGKILL after a timeout),
// waits for it, and returns the peak RSS of the largest process in its
// tree: wait4 reports the maximum over the daemon and every worker it
// reaped.
func (w *service) stopDaemon() (float64, error) {
	if w.cmd == nil {
		return 0, nil
	}
	cmd := w.cmd
	w.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(serviceStopTimeout):
		cmd.Process.Kill()
		<-w.exited
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for simd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

func (w *service) stop() (float64, error) {
	rss, err := w.stopDaemon()
	os.RemoveAll(w.dir)
	return rss, err
}

func (w *service) units() int { return len(w.specs) }

func (w *service) cpu() (time.Duration, time.Duration, error) {
	if w.cmd == nil {
		return 0, 0, errors.New("simd is not running")
	}
	sut, err := treeCPU(w.cmd.Process.Pid)
	return sut, selfCPU(), err
}

func (w *service) run(ctx context.Context, i int, tr *tracer) error {
	blob, t, err := w.roundTrip(ctx, w.specs[i], tr, i)
	w.results[i], w.timing[i] = blob, t
	return err
}

// roundTrip submits a spec, follows the campaign's SSE stream to its
// terminal state and fetches results.json.
func (w *service) roundTrip(ctx context.Context, spec []byte, tr *tracer, unit int) ([]byte, svcTiming, error) {
	var t svcTiming
	t0 := time.Now()
	u := tr.begin("unit", unit, 0)
	defer tr.end(u)
	s := tr.begin("simd.Submit", unit, u)
	st, err := w.cl.Submit(ctx, spec)
	tr.end(s)
	t.submit = time.Since(t0)
	if err != nil {
		return nil, t, fmt.Errorf("submit: %w", err)
	}
	t.deduped = st.Deduped
	var state, why string
	s = tr.begin("simd.Tail", unit, u)
	err = w.cl.Tail(ctx, st.ID, func(ev simd.Event) error {
		switch ev.Type {
		case "state":
			if ev.State == "running" && t.running == 0 {
				t.running = time.Since(t0)
			}
			state, why = ev.State, ev.Err
		case "trial":
			t.execMS += ev.WallMS
		}
		return nil
	})
	tr.end(s)
	if err != nil {
		return nil, t, fmt.Errorf("tail %s: %w", st.ID, err)
	}
	if state != "done" {
		return nil, t, fmt.Errorf("campaign %s ended %s: %s", st.ID, state, why)
	}
	r0 := time.Now()
	s = tr.begin("simd.Results", unit, u)
	blob, err := w.cl.Results(ctx, st.ID)
	tr.end(s)
	t.results = time.Since(r0)
	t.total = time.Since(t0)
	if err != nil {
		return nil, t, fmt.Errorf("results %s: %w", st.ID, err)
	}
	return blob, t, nil
}

// reference runs a spec in process through the sweep orchestrator and
// renders results.json exactly as the daemon's worker does.
func reference(ctx context.Context, spec []byte) ([]byte, error) {
	s, err := campaigns.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	c, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	o, err := sweep.RunContext(ctx, c, sweep.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(o.Results, "", "  ")
	return append(blob, '\n'), err
}

func (w *service) check(ctx context.Context, tr *tracer, layers map[string]float64) map[int]error {
	errs := map[int]error{}
	for i, spec := range w.specs {
		got := w.results[i]
		if got == nil {
			errs[i] = errors.New("no results")
			continue
		}
		if j := w.orig[i]; j >= 0 {
			if !w.timing[i].deduped || !bytes.Equal(got, w.results[j]) {
				errs[i] = fmt.Errorf("resubmission of unit %d: deduped %v, same bytes %v",
					j, w.timing[i].deduped, bytes.Equal(got, w.results[j]))
			}
			continue
		}
		want, err := reference(ctx, spec)
		if err == nil && !bytes.Equal(got, want) {
			err = errors.New("results.json differs from an in-process sweep.Run of the same spec")
		}
		if err != nil {
			errs[i] = err
		}
	}
	if tr == nil {
		return errs
	}

	var submit, queue, exec, over, res []float64
	for i, t := range w.timing {
		if w.orig[i] >= 0 {
			continue
		}
		submit = append(submit, ms(t.submit))
		queue = append(queue, ms(t.running))
		exec = append(exec, t.execMS)
		over = append(over, ms(t.total)-t.execMS)
		res = append(res, ms(t.results))
	}
	layers["simd.submit_ms"] = median(submit)
	layers["simd.queue_ms"] = median(queue)
	layers["simd.exec_ms"] = median(exec)
	layers["simd.overhead_ms"] = median(over)
	layers["simd.results_ms"] = median(res)
	counters, err := w.scrape(ctx)
	if err != nil {
		errs[-1] = err // not a unit's fault, but the run is still wrong
		return errs
	}
	for name, metric := range map[string]string{
		"simd.deduped":  "simd_deduped",
		"simd.executed": "simd_trials_executed",
		"simd.restarts": "simd_worker_deaths",
		"simd.admitted": "simd_admitted",
	} {
		layers[name] = counters[metric]
	}
	return errs
}

// scrape reads the daemon's Prometheus exposition into name -> value,
// summing over label sets and dropping a _total suffix.
func (w *service) scrape(ctx context.Context) (map[string]float64, error) {
	blob, err := w.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(name, "_total")] += v
	}
	return out, sc.Err()
}
