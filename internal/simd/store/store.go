// Package store is the simd daemon's integrity-checked on-disk state: one
// directory per campaign (spec, status, deterministic artifacts) next to the
// shared sweep cache/journal directory, with three defenses layered on top
// of plain files:
//
//   - Atomic writes. Every file lands via a same-directory temp file, fsync
//     and rename, so a SIGKILL at any instant leaves each path absent,
//     previous or current — never torn — and a failed write never leaves a
//     temp file behind.
//
//   - Checksummed artifacts. Immutable artifacts (spec.json, results.json,
//     metrics.txt) carry a sha256 sidecar written after the data file, so
//     silent corruption — a bad disk, a truncating copy, a stray editor —
//     is detected on read and at startup rather than served to a client.
//     The mutable status.json is exempt: it is rewritten on every state
//     transition and already torn-tolerant by construction.
//
//   - A scrubber. Scrub walks every campaign at daemon startup, verifies
//     each artifact against its sidecar, quarantines mismatches by renaming
//     them to *.corrupt and backfills sidecars for artifacts written before
//     checksumming existed, so the store converges instead of rotting.
//
// The sweep cache writes and reads its trial entries with WriteArtifact and
// ReadArtifact on a Dir rooted at the cache directory, so a cache entry —
// the only copy of a trial result — has the same atomic write, sidecar and
// quarantine as a campaign artifact.
//
// Degradation is typed, not silent: a write that fails with ENOSPC is
// recognizable via IsNoSpace so the daemon can refuse new work with a 507
// instead of corrupting its journal, and a checksum mismatch surfaces as
// ErrCorrupt after the offending file has already been moved out of the way.
//
// The Fault hook is the chaos seam: internal/fault/chaos plugs seeded short
// writes and ENOSPC failures into every write so the whole layer is tested
// under the faults it claims to survive.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// ErrCorrupt reports an artifact whose content did not match its sha256
// sidecar. By the time a caller sees it the artifact has been quarantined
// (renamed to *.corrupt), so a retry reads "missing", not "corrupt".
var ErrCorrupt = errors.New("store: artifact failed checksum verification")

// WriteFault intercepts a write for fault injection: it returns the bytes
// that actually reach the temp file and an error to surface after they land.
// (blob, nil) passes the write through; (blob[:n], err) models a short write;
// (nil, syscall.ENOSPC) models a full disk. The hook sees every atomic write
// — artifacts, statuses and sidecars alike.
type WriteFault func(path string, blob []byte) ([]byte, error)

// Dir is one daemon's store rooted at Root:
//
//	<root>/cache/                      shared sweep trial cache + journals
//	<root>/campaigns/<id>/spec.json    canonical spec (+ .sha256 sidecar)
//	<root>/campaigns/<id>/status.json  latest status (atomic, no sidecar)
//	<root>/campaigns/<id>/results.json deterministic results (+ sidecar)
//	<root>/campaigns/<id>/metrics.txt  merged metrics (+ sidecar)
type Dir struct {
	Root string
	// Fault, when non-nil, intercepts every write (chaos injection).
	Fault WriteFault
}

// Open creates the store layout under root.
func Open(root string) (*Dir, error) {
	d := &Dir{Root: root}
	for _, p := range []string{d.CacheDir(), d.CampaignsDir()} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", p, err)
		}
	}
	return d, nil
}

// CacheDir is the shared sweep cache/journal directory.
func (d *Dir) CacheDir() string { return filepath.Join(d.Root, "cache") }

// CampaignsDir holds one subdirectory per campaign id.
func (d *Dir) CampaignsDir() string { return filepath.Join(d.Root, "campaigns") }

// CampaignDir is the directory of one campaign.
func (d *Dir) CampaignDir(id string) string { return filepath.Join(d.CampaignsDir(), id) }

// Path names a file inside one campaign's directory.
func (d *Dir) Path(id, name string) string { return filepath.Join(d.CampaignDir(id), name) }

// IsNoSpace reports whether err is the filesystem running out of space —
// the one write failure the daemon degrades through (typed 507) rather than
// treats as a bug.
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// sidecarSuffix names the checksum sidecar next to an artifact.
const sidecarSuffix = ".sha256"

// corruptSuffix marks a quarantined file; quarantined entries are invisible
// to Scan and ReadArtifact but kept on disk for post-mortems.
const corruptSuffix = ".corrupt"

// writeAtomic lands blob at path via temp file + fsync + rename, routing the
// bytes through the fault hook. On any failure the temp file is removed, so
// injected short writes and ENOSPC leave no debris and never a torn target.
func (d *Dir) writeAtomic(path string, blob []byte) error {
	var ferr error
	if d.Fault != nil {
		if blob, ferr = d.Fault(path, blob); ferr != nil && blob == nil {
			return fmt.Errorf("store: writing %s: %w", path, ferr)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	name := tmp.Name()
	_, werr := tmp.Write(blob)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil || ferr != nil {
		os.Remove(name)
		err := werr
		for _, e := range []error{serr, cerr, ferr} {
			if err == nil {
				err = e
			}
		}
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

// WriteFile writes a mutable, sidecar-less file (status.json) atomically.
func (d *Dir) WriteFile(path string, blob []byte) error {
	return d.writeAtomic(path, blob)
}

// WriteArtifact writes an immutable artifact and its sha256 sidecar, data
// first: a crash between the two leaves a sidecar-less artifact, which Scrub
// backfills, never a sidecar attesting to bytes that were not written.
func (d *Dir) WriteArtifact(path string, blob []byte) error {
	if err := d.writeAtomic(path, blob); err != nil {
		return err
	}
	return d.writeAtomic(path+sidecarSuffix, digestLine(blob))
}

// ReadArtifact reads an artifact, verifying it against its sidecar when one
// exists. On a mismatch the artifact and sidecar are quarantined (renamed to
// *.corrupt) and ErrCorrupt is returned, so the damage is observed exactly
// once; a sidecar-less artifact (pre-checksum store, or a crash between data
// and sidecar) reads as-is and is repaired by the next Scrub.
func (d *Dir) ReadArtifact(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want, err := os.ReadFile(path + sidecarSuffix)
	if err != nil {
		if os.IsNotExist(err) {
			return blob, nil
		}
		return nil, err
	}
	if !digestMatches(blob, want) {
		d.quarantine(path)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	return blob, nil
}

// quarantine renames an artifact (and its sidecar) to *.corrupt.
func (d *Dir) quarantine(path string) {
	os.Rename(path, path+corruptSuffix)
	os.Rename(path+sidecarSuffix, path+sidecarSuffix+corruptSuffix)
}

// Remove deletes a campaign's directory — the undo of a failed admission.
func (d *Dir) Remove(id string) error {
	return os.RemoveAll(d.CampaignDir(id))
}

// Stored is one persisted campaign surfaced by Scan.
type Stored struct {
	ID string
	// Spec is the verified canonical spec.json.
	Spec []byte
	// Status is the raw status.json blob; nil when missing or unreadable
	// (the caller treats either as "unknown, resume it").
	Status []byte
}

// Scan enumerates persisted campaigns in lexical id order, tolerating torn
// or missing status files. A campaign whose spec.json is missing or fails
// verification is quarantined wholesale — it cannot be resumed and must not
// shadow a future resubmission of the same id.
func (d *Dir) Scan() ([]Stored, error) {
	ents, err := os.ReadDir(d.CampaignsDir())
	if err != nil {
		return nil, err
	}
	var out []Stored
	for _, e := range ents {
		if !e.IsDir() || strings.HasSuffix(e.Name(), corruptSuffix) {
			continue
		}
		id := e.Name()
		spec, err := d.ReadArtifact(d.Path(id, "spec.json"))
		if err != nil {
			os.Rename(d.CampaignDir(id), d.CampaignDir(id)+corruptSuffix)
			continue
		}
		sc := Stored{ID: id, Spec: spec}
		if blob, err := os.ReadFile(d.Path(id, "status.json")); err == nil {
			sc.Status = blob
		}
		out = append(out, sc)
	}
	return out, nil
}

// ScrubReport summarizes one integrity pass.
type ScrubReport struct {
	// Checked counts artifacts whose sidecar was verified.
	Checked int
	// Quarantined lists artifacts renamed to *.corrupt this pass.
	Quarantined []string
	// Backfilled counts artifacts that had no sidecar and got one.
	Backfilled int
}

// scrubbed lists the artifact names a campaign directory may hold; the
// mutable status.json is deliberately absent.
var scrubbed = []string{"spec.json", "results.json", "metrics.txt"}

// Scrub verifies every campaign artifact against its sidecar: mismatches are
// quarantined to *.corrupt, missing sidecars are backfilled, and orphan
// sidecars (their artifact is gone) are removed. Run it at daemon startup,
// before recovery, so recovery never trusts a corrupt spec or serves corrupt
// results.
func (d *Dir) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	ents, err := os.ReadDir(d.CampaignsDir())
	if err != nil {
		return rep, err
	}
	for _, e := range ents {
		if !e.IsDir() || strings.HasSuffix(e.Name(), corruptSuffix) {
			continue
		}
		id := e.Name()
		for _, name := range scrubbed {
			path := d.Path(id, name)
			blob, err := os.ReadFile(path)
			if err != nil {
				if os.IsNotExist(err) {
					os.Remove(path + sidecarSuffix) // orphan sidecar, if any
					continue
				}
				return rep, err
			}
			want, err := os.ReadFile(path + sidecarSuffix)
			switch {
			case os.IsNotExist(err):
				if werr := d.writeAtomic(path+sidecarSuffix, digestLine(blob)); werr != nil {
					return rep, werr
				}
				rep.Backfilled++
			case err != nil:
				return rep, err
			case digestMatches(blob, want):
				rep.Checked++
			default:
				d.quarantine(path)
				rep.Quarantined = append(rep.Quarantined, path)
			}
		}
	}
	sort.Strings(rep.Quarantined)
	return rep, nil
}

// digestLine renders a blob's sidecar content.
func digestLine(blob []byte) []byte {
	sum := sha256.Sum256(blob)
	return []byte(hex.EncodeToString(sum[:]) + "\n")
}

// digestMatches verifies blob against a sidecar's content.
func digestMatches(blob, sidecar []byte) bool {
	sum := sha256.Sum256(blob)
	return strings.TrimSpace(string(sidecar)) == hex.EncodeToString(sum[:])
}
