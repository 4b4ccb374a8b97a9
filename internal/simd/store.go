package simd

import (
	"encoding/json"
	"fmt"

	cas "mkos/internal/simd/store"
)

// store is the integrity-checked campaign store (internal/simd/store) plus
// the daemon's own records: the Status JSON and the spec/status file names.
// Layout:
//
//	<root>/cache/                    shared trial cache + campaign journals
//	<root>/campaigns/<id>/spec.json   canonical spec (written once, at admit)
//	<root>/campaigns/<id>/status.json latest persisted Status
//	<root>/campaigns/<id>/results.json deterministic results (done only)
//	<root>/campaigns/<id>/metrics.txt  deterministic merged metrics (done only)
//
// Every write is atomic (temp file + rename), so a SIGKILL at any instant
// leaves each file either absent, previous, or current — never torn. The
// deterministic artifacts (written by the campaign's worker) additionally
// carry sha256 sidecars, verified on read and scrubbed at startup;
// status.json is exempt (it is rewritten on every transition and recovery
// already tolerates a stale or missing one).
type store struct {
	*cas.Dir
}

func openStore(root string, fault cas.WriteFault) (*store, error) {
	d, err := cas.Open(root)
	if err != nil {
		return nil, fmt.Errorf("simd: creating store: %w", err)
	}
	d.Fault = fault
	return &store{Dir: d}, nil
}

// admit persists a newly admitted campaign: its spec (the canonical form its
// ID hashes, sidecar-checksummed — a corrupted spec is unresumable) and its
// queued status. Persist-then-respond ordering is what makes admission
// durable: once a client holds a 202, a crash cannot lose the campaign.
func (s *store) admit(id string, canonSpec []byte, st *Status) error {
	if err := s.WriteArtifact(s.Path(id, "spec.json"), canonSpec); err != nil {
		return err
	}
	return s.putStatus(id, st)
}

// putStatus persists the campaign's current status.
func (s *store) putStatus(id string, st *Status) error {
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return s.WriteFile(s.Path(id, "status.json"), append(blob, '\n'))
}

// storedCampaign is one recovered campaign from a store scan.
type storedCampaign struct {
	id     string
	spec   []byte // canonical spec.json
	status Status // zero-valued (State "") when status.json is missing/torn
}

// scan enumerates the persisted campaigns in lexical id order, tolerating
// torn or missing status files. A campaign directory without a verifiable
// spec is quarantined by rename — it cannot be resumed and must not shadow a
// future resubmission of the same id.
func (s *store) scan() ([]storedCampaign, error) {
	stored, err := s.Scan()
	if err != nil {
		return nil, err
	}
	out := make([]storedCampaign, 0, len(stored))
	for _, c := range stored {
		sc := storedCampaign{id: c.ID, spec: c.Spec}
		if len(c.Status) > 0 {
			var st Status
			if json.Unmarshal(c.Status, &st) == nil {
				sc.status = st
			}
		}
		out = append(out, sc)
	}
	return out, nil
}
