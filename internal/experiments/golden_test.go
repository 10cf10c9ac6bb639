package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/ from a full run")

// resultsDir holds the committed paper outputs.
const resultsDir = "../../results"

// TestPaperOutputsGolden runs every experiment in full mode and holds its
// output to the committed results/: each CSV byte for byte, and the
// transcript experiments_full.txt line by line, where a line carrying the
// Measured mark is compared only up to the mark. With -update it rewrites
// results/ instead.
func TestPaperOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSV written (%v)", err)
	}
	files := map[string][]byte{"experiments_full.txt": buf.Bytes()}
	for _, f := range csvs {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(f)] = data
	}
	if *update {
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(resultsDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, got := range files {
		want, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			t.Errorf("%s: %v (run with -update to create it)", name, err)
			continue
		}
		if name != "experiments_full.txt" {
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s; first difference: %s", name, resultsDir, firstDiff(string(got), string(want), false))
			}
			continue
		}
		if d := firstDiff(string(got), string(want), true); d != "" {
			t.Errorf("%s differs from %s: %s", name, resultsDir, d)
		}
	}
}

// firstDiff describes the first line where got and want differ, or returns
// "" when they agree; with masked set, each line is cut at the Measured mark.
func firstDiff(got, want string, masked bool) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	cut := func(l string) string {
		if i := strings.Index(l, Measured); masked && i >= 0 {
			return l[:i]
		}
		return l
	}
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if cut(gl) != cut(wl) {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, gl, wl)
		}
	}
	return ""
}
