package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/market"
)

// TestOutRoundTrips writes a trace with -out and reads it back through
// market.ReadCSV: every record must equal market.Generate's bit for bit.
func TestOutRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r3.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-type", "r3.xlarge", "-days", "2", "-seed", "3", "-out", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Errorf("no write confirmation in stdout:\n%s", stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := market.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := set["r3.xlarge"]
	if !ok || len(set) != 1 {
		t.Fatalf("read back markets %v, want just r3.xlarge", set)
	}

	specs, err := market.DefaultSpecs(market.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	var want *market.Trace
	start := campaign.DefaultStart()
	for _, spec := range specs {
		if spec.Type.Name == "r3.xlarge" {
			want, err = market.Generate(spec, start, start.Add(48*time.Hour), 3)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if want == nil {
		t.Fatal("r3.xlarge missing from the default specs")
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("read back %d records, generated %d", len(got.Records), len(want.Records))
	}
	for i, w := range want.Records {
		g := got.Records[i]
		if !g.At.Equal(w.At) || math.Float64bits(g.Price) != math.Float64bits(w.Price) {
			t.Fatalf("record %d: read back %v %v, generated %v %v", i, g.At, g.Price, w.At, w.Price)
		}
	}
}

// TestSummaryAndUnknownType smokes the -summary table and the unknown-type
// error.
func TestSummaryAndUnknownType(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-summary", "-days", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != 7 {
		t.Errorf("summary has %d lines, want a header and six markets:\n%s", lines, stdout.String())
	}
	if err := run([]string{"-type", "nope.large"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "unknown instance type") {
		t.Errorf("unknown type: err = %v", err)
	}
}
