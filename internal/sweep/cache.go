package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"

	"mkos/internal/simd/store"
)

// cacheSchema versions the on-disk format itself; bumping it orphans every
// existing entry and moves every campaign journal. It is folded into each
// entry's content hash and each journal's campaign identity alongside the
// code version. v2 is the format in which the entry is a trial's only copy
// and the journal only indexes it.
const cacheSchema = "mkos-sweep-v2"

// CodeVersion identifies the code that produces trial results, for cache
// invalidation: the VCS revision embedded by the Go toolchain when available
// (plus a "+dirty" marker for modified builds). Test binaries and plain `go
// build` outside a stamped checkout fall back to the bare schema string —
// callers that need stricter invalidation pass Options.Version explicitly.
func CodeVersion() string {
	v := cacheSchema
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			v += "@" + rev + dirty
		}
	}
	return v
}

// diskCache holds the only durable copy of each finished trial: one JSON
// entry per trial under dir, named by the trial's content hash and written
// and read with the simd store's integrity primitives. An entry lands by
// temp file, fsync and rename, followed by its sha256 sidecar, so a killed
// campaign never leaves a torn entry behind. A read verifies the entry
// against its sidecar; on a mismatch the store quarantines both files by
// renaming them aside (freeing the slot and preserving the evidence), the
// cache counts it in quarantined, and the lookup misses, so the trial runs
// again. Every load is also validated against the trial key, so a hash
// collision or a foreign file degrades to a miss, never a wrong result.
//
// Failures are entries too, but only the campaign whose journal recorded the
// failure restores one (see load); every other lookup re-runs the trial.
type diskCache struct {
	st      store.Dir
	version string

	quarantined atomic.Int64
}

func openCache(dir, version string) (*diskCache, error) {
	if version == "" {
		version = CodeVersion()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: creating cache dir: %w", err)
	}
	return &diskCache{st: store.Dir{Root: dir}, version: version}, nil
}

// entryHash is the cache key: code version, trial key, derived seed and the
// canonical JSON of the trial spec. Changing any one of them — a parameter
// edit, a different campaign seed, a new code revision — re-executes exactly
// the affected trials. The campaign name is deliberately excluded: two
// campaigns that enumerate an identical trial share its result.
func (c *diskCache) entryHash(t Trial, seed int64) (string, error) {
	spec, err := json.Marshal(t.Spec)
	if err != nil {
		return "", fmt.Errorf("sweep: marshaling spec of %q: %w", t.Key, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00", cacheSchema, c.version, t.Key, seed)
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (c *diskCache) path(hash string) string {
	return filepath.Join(c.st.Root, hash+".json")
}

// load returns the cached result for the trial with the given entry hash and
// key, reporting whether the lookup hit. A missing, corrupt or mismatched
// entry misses, and so does a failure unless withFailure is set: a failure
// is restored only for the campaign that journaled it. Either way the trial
// simply runs again.
func (c *diskCache) load(hash, key string, withFailure bool) (TrialResult, bool) {
	blob, err := c.st.ReadArtifact(c.path(hash))
	if errors.Is(err, store.ErrCorrupt) {
		c.quarantined.Add(1)
	}
	if err != nil {
		return TrialResult{}, false
	}
	var r TrialResult
	if json.Unmarshal(blob, &r) != nil || r.Key != key || (r.Err != "" && !withFailure) {
		return TrialResult{}, false
	}
	r.Cached = true
	return r, true
}

// store persists a finished trial result, success or failure, and reports
// whether it is durable: the caller journals the trial only then. A failed
// write (a read-only or full disk) leaves the trial unjournaled, so it
// re-runs on resume; the cache accelerates, it never fails the campaign.
func (c *diskCache) store(hash string, r TrialResult) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return c.st.WriteArtifact(c.path(hash), blob)
}
