package sweep_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mkos/internal/sweep"
)

// countingCampaign builds trials that count their executions through a shared
// slice, so tests can assert exactly which trials ran.
func countingCampaign(name string, n int, execs []int) *sweep.Campaign {
	c := &sweep.Campaign{Name: name, Seed: 9}
	for i := 0; i < n; i++ {
		i := i
		c.Trials = append(c.Trials, sweep.Trial{
			Key:  fmt.Sprintf("count/n%03d", i),
			Spec: synthSpec{ID: i, Scale: 2},
			Run: func(t *sweep.T) (any, error) {
				execs[i]++
				return map[string]int64{"seed": t.Seed}, nil
			},
		})
	}
	return c
}

func TestCacheWarmRerunExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	execs := make([]int, 6)
	opts := sweep.Options{Workers: 3, CacheDir: dir, Version: "test-v1"}

	cold, err := sweep.Run(countingCampaign("cache", 6, execs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed != 6 || cold.Cached != 0 {
		t.Fatalf("cold run executed=%d cached=%d, want 6/0", cold.Executed, cold.Cached)
	}
	coldArt := artifacts(t, cold)

	warm, err := sweep.Run(countingCampaign("cache", 6, execs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.Cached != 6 {
		t.Fatalf("warm run executed=%d cached=%d, want 0/6", warm.Executed, warm.Cached)
	}
	for i, n := range execs {
		if n != 1 {
			t.Fatalf("trial %d ran %d times across cold+warm, want 1", i, n)
		}
	}
	if !bytes.Equal(coldArt, artifacts(t, warm)) {
		t.Fatal("warm-cache artifacts differ from the cold run")
	}
}

func TestCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	execs := make([]int, 3)
	opts := sweep.Options{Workers: 2, CacheDir: dir, Version: "test-v1"}
	if _, err := sweep.Run(countingCampaign("inv", 3, execs), opts); err != nil {
		t.Fatal(err)
	}

	// Editing one trial's spec re-executes only that trial.
	edited := countingCampaign("inv", 3, execs)
	edited.Trials[1].Spec = synthSpec{ID: 1, Scale: 3}
	o, err := sweep.Run(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 1 || o.Cached != 2 {
		t.Fatalf("after spec edit executed=%d cached=%d, want 1/2", o.Executed, o.Cached)
	}
	if execs[0] != 1 || execs[1] != 2 || execs[2] != 1 {
		t.Fatalf("execution counts %v, want [1 2 1]", execs)
	}

	// A new campaign seed changes every derived trial seed: full re-run.
	reseeded := countingCampaign("inv", 3, execs)
	reseeded.Seed = 10
	o, err = sweep.Run(reseeded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 3 {
		t.Fatalf("after campaign reseed executed=%d, want 3", o.Executed)
	}

	// A code-version bump also orphans everything.
	o, err = sweep.Run(countingCampaign("inv", 3, execs), sweep.Options{
		Workers: 2, CacheDir: dir, Version: "test-v2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 3 {
		t.Fatalf("after version bump executed=%d, want 3", o.Executed)
	}
}

// TestJournalRestoresFailedTrials pins the resume semantics for failures: a
// deterministic failure is journaled and restored on re-invocation (zero
// re-execution), and RetryFailed re-runs exactly the failed set.
func TestJournalRestoresFailedTrials(t *testing.T) {
	dir := t.TempDir()
	execs := make([]int, 2)
	broken := countingCampaign("fail", 2, execs)
	failures := 0
	broken.Trials[0].Run = func(*sweep.T) (any, error) {
		failures++
		return nil, fmt.Errorf("transient failure %d", failures)
	}
	opts := sweep.Options{Workers: 1, CacheDir: dir, Version: "test-v1"}
	first, err := sweep.Run(broken, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed != 1 || first.Executed != 1 {
		t.Fatalf("first run failed=%d executed=%d, want 1/1", first.Failed, first.Executed)
	}

	// Re-invoked unchanged: the journal restores the failure, nothing
	// re-executes, and the failure is still visible with its original error.
	again, err := sweep.Run(countingCampaign("fail", 2, execs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Failed != 1 || again.Cached != 1 {
		t.Fatalf("journal run executed=%d failed=%d cached=%d, want 0/1/1", again.Executed, again.Failed, again.Cached)
	}
	if r, ok := again.Result("count/n000"); !ok || !strings.Contains(r.Err, "transient failure 1") {
		t.Fatalf("restored failure = %+v", r)
	}
	if execs[0] != 0 {
		t.Fatalf("failed trial re-executed %d times without RetryFailed", execs[0])
	}

	// RetryFailed after healing: exactly the failed trial re-runs and the
	// journal is updated with its success.
	healed := countingCampaign("fail", 2, execs)
	retry := opts
	retry.RetryFailed = true
	o, err := sweep.Run(healed, retry)
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 1 || o.Cached != 1 || o.Failed != 0 {
		t.Fatalf("retry run executed=%d cached=%d failed=%d, want 1/1/0", o.Executed, o.Cached, o.Failed)
	}
	if execs[0] != 1 || execs[1] != 1 {
		t.Fatalf("execution counts %v, want [1 1]", execs)
	}
	final, err := sweep.Run(countingCampaign("fail", 2, execs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if final.Executed != 0 || final.Failed != 0 {
		t.Fatalf("post-heal run executed=%d failed=%d, want 0/0", final.Executed, final.Failed)
	}
}

// TestCacheQuarantinesCorruptEntries: the cache entry is a trial's only
// copy, so a damaged entry has nothing to be restored from, journal or not.
// The store's checksum catches it and quarantines the entry and its sidecar
// to *.corrupt (preserving the evidence, freeing the slot), the ops registry
// counts it, and the trial re-executes exactly once with a byte-identical
// result that repopulates the cache.
func TestCacheQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	execs := make([]int, 1)
	opts := sweep.Options{Workers: 1, CacheDir: dir, Version: "test-v1"}
	cold, err := sweep.Run(countingCampaign("corrupt", 1, execs), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldArt := artifacts(t, cold)
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (%v)", entries, err)
	}
	entry := entries[0]

	// rerun corrupts the entry, re-invokes the campaign and checks that the
	// corruption was quarantined, counted and healed by one re-execution.
	rerun := func(stage string, wantExecs int) {
		t.Helper()
		if err := os.WriteFile(entry, []byte("{truncated"), 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := sweep.Run(countingCampaign("corrupt", 1, execs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if o.Executed != 1 || o.Cached != 0 || o.Failed != 0 {
			t.Fatalf("%s: executed=%d cached=%d failed=%d, want 1/0/0", stage, o.Executed, o.Cached, o.Failed)
		}
		if execs[0] != wantExecs {
			t.Fatalf("%s: trial ran %d times total, want %d", stage, execs[0], wantExecs)
		}
		if got := o.Ops.CounterValue("sweep.cache.quarantined"); got != 1 {
			t.Fatalf("%s: sweep.cache.quarantined = %d, want 1", stage, got)
		}
		for _, q := range []string{entry + ".corrupt", entry + ".sha256.corrupt"} {
			if _, err := os.Stat(q); err != nil {
				t.Fatalf("%s: corrupt entry not quarantined: %v", stage, err)
			}
			os.Remove(q)
		}
		if !bytes.Equal(coldArt, artifacts(t, o)) {
			t.Fatalf("%s: re-executed artifacts differ from the cold run", stage)
		}
		warm, err := sweep.Run(countingCampaign("corrupt", 1, execs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Executed != 0 || warm.Cached != 1 {
			t.Fatalf("%s: re-executed result not cached: executed=%d cached=%d", stage, warm.Executed, warm.Cached)
		}
	}

	// The journal still indexes the trial, but the copy it points at is
	// gone: the trial re-runs.
	rerun("journal intact", 2)

	// Corrupt again with no journal at all: the same, once more.
	journals, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("want one campaign journal, got %v (%v)", journals, err)
	}
	if err := os.Remove(journals[0]); err != nil {
		t.Fatal(err)
	}
	rerun("journal removed", 3)
}

// TestOldFormatJournalReruns: a journal line in the old payload-carrying
// format ({"hash","result"}) found at the current journal path is skipped,
// never decoded as a result. Its trial, whose current cache entry is absent,
// executes once and matches a clean run, even though the stale line carries
// a plausible but wrong payload under the right hash.
func TestOldFormatJournalReruns(t *testing.T) {
	const version = "legacy-v1"
	cleanDir := t.TempDir()
	execs := make([]int, 1)
	clean, err := sweep.Run(countingCampaign("legacy", 1, execs), sweep.Options{Workers: 1, CacheDir: cleanDir, Version: version})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cleanDir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (%v)", entries, err)
	}
	hash := strings.TrimSuffix(filepath.Base(entries[0]), ".json")

	dir := t.TempDir()
	line := fmt.Sprintf(`{"hash":%q,"result":{"key":"count/n000","seed":1,"payload":{"seed":1}}}`+"\n", hash)
	if err := os.WriteFile(sweep.JournalPath(dir, version, "legacy", 9), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := sweep.ProbeJournal(dir, version, "legacy", 9); n != 0 || err != nil {
		t.Fatalf("probe of an old-format journal = (%d, %v), want (0, nil)", n, err)
	}
	o, err := sweep.Run(countingCampaign("legacy", 1, execs), sweep.Options{Workers: 1, CacheDir: dir, Version: version})
	if err != nil {
		t.Fatal(err)
	}
	if o.Executed != 1 || o.Cached != 0 || execs[0] != 2 {
		t.Fatalf("old-format journal: executed=%d cached=%d, trial ran %d times; want 1/0/2", o.Executed, o.Cached, execs[0])
	}
	if !bytes.Equal(artifacts(t, clean), artifacts(t, o)) {
		t.Fatal("artifacts after an old-format journal differ from a clean run")
	}
	if n, err := sweep.ProbeJournal(dir, version, "legacy", 9); n != 1 || err != nil {
		t.Fatalf("probe after the re-run = (%d, %v), want (1, nil)", n, err)
	}
}
