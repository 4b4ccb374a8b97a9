package report

import (
	"bytes"
	"os"
	"testing"
	"time"

	"mkos/internal/core"
)

// TestFigure3DefaultIsPrefixOfCommitted requires `noiseprofile -series`'s
// default 2-minute output for none and daemons to be a prefix of the
// committed 6-minute files, as EXPERIMENTS.md states: a run's first
// iterations do not depend on its length.
func TestFigure3DefaultIsPrefixOfCommitted(t *testing.T) {
	for _, f := range []struct{ cm, file string }{
		{"none", "figure3_baseline.txt"},
		{"daemons", "figure3_daemons.txt"},
	} {
		want, err := os.ReadFile("../../../results/" + f.file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := Figure3(&got, f.cm, 2*time.Minute, core.NoiseSeed); err != nil {
			t.Fatal(err)
		}
		if got.Len() >= len(want) || !bytes.HasPrefix(want, got.Bytes()) {
			t.Errorf("%s: the 2-minute series (%d bytes) is not a proper prefix of results/%s (%d bytes)",
				f.cm, got.Len(), f.file, len(want))
		}
	}
}
