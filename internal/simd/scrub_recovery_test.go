package simd_test

import (
	"os"
	"path/filepath"
	"testing"

	"mkos/internal/simd"
)

// TestScrubQuarantinesAndRerunsCorruptResults: silent artifact corruption is
// caught by the startup scrubber, quarantined to *.corrupt, and the campaign
// — terminal "done" on disk but with unservable results — is re-run from its
// journal: zero trial bodies re-execute and the restored results.json is
// byte-identical to the original.
func TestScrubQuarantinesAndRerunsCorruptResults(t *testing.T) {
	ctx := testCtx(t)
	store := t.TempDir()
	h := newHarness(t)
	d := startDaemon(t, simd.Options{Store: store, Worker: h.worker()})
	cl := d.client("scrub")

	st, err := cl.Submit(ctx, specJSON("scrubme", 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Await(ctx, st.ID); err != nil || st.State != simd.StateDone {
		t.Fatalf("campaign: %+v, %v", st, err)
	}
	original, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	d.stop()

	// A bad disk flips the artifact's bytes behind the daemon's back.
	path := filepath.Join(store, "campaigns", st.ID, "results.json")
	if err := os.WriteFile(path, []byte("bit rot\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t)
	d2 := startDaemon(t, simd.Options{Store: store, Worker: h2.worker()})
	defer d2.stop()
	cl2 := d2.client("scrub")

	st2, err := cl2.Await(ctx, st.ID)
	if err != nil || st2.State != simd.StateDone {
		t.Fatalf("recovered campaign: %+v, %v", st2, err)
	}
	// The re-run came entirely from the journal: no trial body executed.
	if st2.Executed != 0 || st2.Cached != 3 {
		t.Fatalf("recovered campaign executed=%d cached=%d, want 0/3", st2.Executed, st2.Cached)
	}
	if n := h2.entries(); n != 0 {
		t.Fatalf("%d trial bodies re-executed after corruption; the journal must carry them all", n)
	}
	if n := journalEntries(t, store, "scrubme", 4); n != 3 {
		t.Fatalf("journal holds %d entries, want 3 — a recount means a trial re-executed", n)
	}
	restored, err := cl2.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(restored) != string(original) {
		t.Fatalf("restored results (%d bytes) differ from the originals (%d bytes)", len(restored), len(original))
	}
	// The corrupted artifact was preserved for the post-mortem.
	if _, serr := os.Stat(path + ".corrupt"); serr != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", serr)
	}
}
