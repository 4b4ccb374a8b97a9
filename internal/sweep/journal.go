package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// journal is the campaign's crash-safe index of finished trials: one JSON
// line per trial, {"hash","key","status"}, appended as each trial completes,
// so a killed or interrupted campaign re-invoked with the same spec resumes
// exactly where it stopped. It carries no result: the trial's cache entry,
// named by the hash, is the only copy, and a line is appended only once that
// entry (and its sidecar) is durable.
//
// The cache is shared by every campaign; the journal is scoped to one
// campaign identity (name, seed, code version) and adds what the shared
// cache cannot say: that this campaign already ran a trial and it failed.
// Such a failure is restored from its cache entry on resume, so a
// deterministic failure does not burn time re-running, unless the caller
// opts in with Options.RetryFailed; any other campaign that meets the same
// failure entry re-runs it.
//
// Crash safety is append-only discipline: every line is a single write to an
// O_APPEND file followed by a sync, so a kill can at worst truncate the
// final line, and the reader skips any line that does not decode to a hash,
// key and status — a torn tail or an old-format line just re-runs its trial.
// Lines are keyed by the trial's content hash (spec, seed, code version), so
// a stale journal from an edited campaign degrades to a no-op, never a wrong
// result. Trials that were canceled, timed out or abandoned are never
// journaled: they re-execute on resume.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	failed map[string]bool // entry hash -> the latest line says it failed
}

// journalLine is the on-disk line format.
type journalLine struct {
	Hash   string `json:"hash"`
	Key    string `json:"key"`
	Status string `json:"status"`
}

// Journal line statuses: a trial's own failure is "failed", anything else
// that finished is "done".
const (
	lineDone   = "done"
	lineFailed = "failed"
)

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
	err = readJournal(f, func(journalLine) { entries++ })
	return entries, err
}

// readJournal hands every well-formed line of a campaign journal to fn, in
// file order. Torn, foreign and old-format lines are skipped; an I/O error
// is returned rather than silently truncating what the journal records.
func readJournal(r io.Reader, fn func(journalLine)) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		var l journalLine
		if json.Unmarshal(line, &l) == nil && l.Hash != "" && l.Key != "" && (l.Status == lineDone || l.Status == lineFailed) {
			fn(l)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("sweep: reading campaign journal: %w", err)
		}
	}
}

// openJournal loads (or creates) the campaign's journal under dir and opens
// it for appending. Lines that do not decode are skipped; later lines for
// the same hash win. The descriptor holds an exclusive advisory lock for the
// life of the campaign run, so a second concurrent run of the same campaign
// identity against the same cache dir fails fast with ErrJournalBusy instead
// of interleaving completion records.
func openJournal(dir, version, name string, seed int64) (*journal, error) {
	path := JournalPath(dir, version, name, seed)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
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
	// Read under the lock: lines appended by a concurrent owner between a
	// read and a failed lock would otherwise be half-observed.
	j := &journal{f: f, failed: make(map[string]bool)}
	if err := readJournal(f, func(l journalLine) { j.failed[l.Hash] = l.Status == lineFailed }); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// append indexes one finished trial whose cache entry is durable. The line
// is written with a single Write to the O_APPEND descriptor and synced, so
// concurrent workers interleave whole lines and a crash can only lose the
// line being written. Errors are swallowed: the journal accelerates resume,
// it must never fail a campaign.
func (j *journal) append(hash string, r TrialResult) {
	l := journalLine{Hash: hash, Key: r.Key, Status: lineDone}
	if r.Err != "" {
		l.Status = lineFailed
	}
	blob, err := json.Marshal(l)
	if err != nil {
		return
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(blob); err == nil {
		j.f.Sync()
	}
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
