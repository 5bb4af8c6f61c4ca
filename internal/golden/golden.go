// Package golden compares test output against files committed under the
// calling package's testdata/ directory. Run the tests with -update to
// rewrite the files from the current code instead of comparing:
//
//	go test ./internal/scenario -run Golden -update
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/ instead of comparing against them")

// Check compares got with testdata/name byte for byte and fails t at the
// first differing line. Under -update it writes got to the file instead.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// JSON renders v as indented JSON with a trailing newline. encoding/json
// formats floats with the shortest representation that round-trips, so a
// golden compared through JSON is bit-exact.
func JSON(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}
