package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the command in-process with args, returning its stdout and
// stderr and the error run returned.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// TestMatrixWritesCSV smokes the matrix path end to end: a two-policy
// baseline grid at quick fidelity writes one audited CSV row per cell.
func TestMatrixWritesCSV(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, err := runCLI(t, "-quick", "-scenarios", "baseline",
		"-policies", "spottune,on-demand", "-out", dir)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stdout, "invariant audit: every cell sound") {
		t.Errorf("no audit verdict in stdout:\n%s", stdout)
	}
	f, err := os.Open(filepath.Join(dir, "scenarios.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scenarios.csv has %d rows, want a header and 2 cells: %v", len(rows), rows)
	}
	for _, row := range rows[1:] {
		if row[0] != "baseline" {
			t.Errorf("cell row for scenario %q, want baseline: %v", row[0], row)
		}
	}
}

// TestServiceMode smokes the multi-tenant path: a small sharded battery
// runs, audits clean and says so.
func TestServiceMode(t *testing.T) {
	stdout, stderr, err := runCLI(t, "-quick", "-tenants", "12", "-shards", "2", "-inflight", "3")
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stdout, "invariant audit: every tenant sound") {
		t.Errorf("no audit verdict in stdout:\n%s", stdout)
	}
}

// TestRejectsContradictoryFlags pins the CLI boundary checks: flag
// combinations that would silently run a different experiment fail before
// any campaign runs.
func TestRejectsContradictoryFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-tenants", "4", "-storm", "all"},
		{"-quick", "-theta", "1.5"},
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("%v: accepted, want an error", args)
		}
	}
}
