package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"mkos/internal/sweep"
	"mkos/internal/sweep/campaigns"
)

// TestCISweepMatchesGolden runs specs/ci-sweep.json as `sweep -j 2` does
// and requires its results.json and metrics.txt to match their
// results/golden.sha256 entries, the ones make golden checks.
func TestCISweepMatchesGolden(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("../../results/golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok && !strings.HasPrefix(sum, "#") {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	spec, err := campaigns.LoadSpec("../../specs/ci-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	o, err := sweep.Run(c, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var results, metrics bytes.Buffer
	if err := writeResults(&results, o); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Registry.WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"ci-sweep/results.json": results.Bytes(),
		"ci-sweep/metrics.txt":  metrics.Bytes(),
	} {
		sum := sha256.Sum256(got)
		if w, ok := want[name]; !ok {
			t.Errorf("results/golden.sha256 has no entry for %s", name)
		} else if h := hex.EncodeToString(sum[:]); h != w {
			t.Errorf("%s: sha256 %s, results/golden.sha256 says %s", name, h, w)
		}
	}
}
