package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrJournalBusy reports that another live process (or another campaign run
// in this process) holds the advisory lock on this campaign's journal.
// Concurrent writers to one journal would not corrupt individual lines —
// appends are single whole-line writes — but each writer would trust a
// completion record the other is still extending, so the second acquirer is
// refused up front with this typed error instead of silently sharing the
// file. Callers that race a daemon and a CLI over one cache dir should back
// off and retry, or point the second run at its own cache dir.
var ErrJournalBusy = errors.New("sweep: campaign journal is locked by another running campaign")

// journal is the crash-safe campaign log: one JSON line per finished trial,
// appended as each trial completes, so a killed or interrupted campaign
// re-invoked with the same spec resumes exactly where it stopped.
//
// It complements the content-addressed result cache in two ways. First, it
// remembers *failed* trials (the cache deliberately never stores failures),
// so a resume does not burn time re-running deterministic failures — unless
// the caller opts in with Options.RetryFailed. Second, it is scoped to one
// campaign identity (name, seed, code version), which makes "this campaign
// already ran trial X" a precise statement rather than an inference from
// shared cache contents.
//
// Crash safety is append-only discipline: every entry is a single
// one-line write to an O_APPEND file followed by a sync, so a kill can at
// worst truncate the final line, and the loader skips any line that does not
// parse. Entries are validated against the trial's content hash (spec, seed,
// code version), so a stale journal from an edited campaign degrades to a
// no-op, never a wrong result. Trials that were canceled, timed out or
// abandoned are never journaled: they re-execute on resume.
type journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	entries map[string]TrialResult // entry hash -> finished result
}

// journalEntry is the on-disk line format.
type journalEntry struct {
	Hash   string      `json:"hash"`
	Result TrialResult `json:"result"`
}

// campaignID derives the journal's identity token from everything that makes
// a campaign "the same campaign": the schema, the code version, the campaign
// name and seed. Trial-level identity lives in each entry's hash.
func campaignID(version, name string, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d", cacheSchema, version, name, seed)
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// JournalPath returns the on-disk path of the campaign's journal under dir
// for the given cache version ("" selects CodeVersion()), name and seed.
// openJournal opens exactly this path; supervisors watch its mtime as a
// liveness signal for an out-of-process campaign run.
func JournalPath(dir, version, name string, seed int64) string {
	if version == "" {
		version = CodeVersion()
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%s.journal", slugName(name), campaignID(version, name, seed)))
}

// ProbeJournal briefly acquires the campaign journal's advisory flock and
// returns how many finished trials it records. It is the dispatcher-side
// preflight for handing a journal to a worker process: a held lock surfaces
// as ErrJournalBusy *before* a worker is spawned (and burned against its
// restart budget), and the lock is released on every return path — success
// or error — so the probe can never leave the journal unacquirable. A
// missing journal is an empty one.
func ProbeJournal(dir, version, name string, seed int64) (entries int, err error) {
	f, err := os.Open(JournalPath(dir, version, name, seed))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("sweep: probing campaign journal: %w", err)
	}
	// The flock belongs to this open descriptor, so the deferred Close
	// releases it on every path out of this function, including error
	// returns — a probe must never turn into a lock leak.
	defer f.Close()
	if err := lockJournalFile(f); err != nil {
		if errors.Is(err, ErrJournalBusy) {
			return 0, fmt.Errorf("sweep: campaign %q journal: %w", name, ErrJournalBusy)
		}
		return 0, fmt.Errorf("sweep: locking campaign journal: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var e journalEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Hash != "" {
			entries++
		}
	}
	if serr := sc.Err(); serr != nil {
		return entries, fmt.Errorf("sweep: reading campaign journal: %w", serr)
	}
	return entries, nil
}

// openJournal loads (or creates) the campaign's journal under dir and opens
// it for appending. Unparseable lines — a truncated tail from a kill — are
// skipped; later entries for the same hash win. The append descriptor holds
// an exclusive advisory lock for the life of the campaign run, so a second
// concurrent run of the same campaign identity against the same cache dir
// fails fast with ErrJournalBusy instead of interleaving completion records.
func openJournal(dir, version, name string, seed int64) (*journal, error) {
	path := JournalPath(dir, version, name, seed)
	j := &journal{path: path, entries: make(map[string]TrialResult)}
	// Lock before reading: entries appended by a concurrent owner between a
	// read and a failed lock would otherwise be half-observed.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening campaign journal: %w", err)
	}
	if err := lockJournalFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrJournalBusy) {
			return nil, fmt.Errorf("sweep: campaign %q journal %s: %w", name, path, ErrJournalBusy)
		}
		return nil, fmt.Errorf("sweep: locking campaign journal: %w", err)
	}
	j.f = f
	if blob, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(blob)
		sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
		for sc.Scan() {
			var e journalEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Hash == "" {
				continue // torn or foreign line: ignore, the trial just re-runs
			}
			j.entries[e.Hash] = e.Result
		}
		blob.Close()
	}
	return j, nil
}

// lookup returns the journaled result for an entry hash.
func (j *journal) lookup(hash string) (TrialResult, bool) {
	r, ok := j.entries[hash]
	return r, ok
}

// append records one finished trial. The whole entry is written with a
// single Write to the O_APPEND descriptor and synced, so concurrent workers
// interleave whole lines and a crash can only lose the entry being written.
// Errors are swallowed like cache-store errors: the journal accelerates
// resume, it must never fail a campaign.
func (j *journal) append(hash string, r TrialResult) {
	blob, err := json.Marshal(journalEntry{Hash: hash, Result: r})
	if err != nil {
		return
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(blob); err != nil {
		return
	}
	j.f.Sync()
	j.entries[hash] = r
}

// close releases the append descriptor.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// slugName makes a campaign name filename-safe.
func slugName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "campaign"
	}
	return string(out)
}
