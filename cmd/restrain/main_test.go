package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestRunTrainsIdenticalFilesAtAnyWorkerCount drives the command's own
// parse and run: the saved model is byte-equal at one and three
// training workers and loads back through the library.
func TestRunTrainsIdenticalFilesAtAnyWorkerCount(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for _, workers := range []string{"1", "3"} {
		out := filepath.Join(dir, "model-"+workers+".json")
		var stdout, stderr bytes.Buffer
		args := []string{"-n", "48", "-iters", "10", "-train-workers", workers, "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q) = %d, stderr:\n%s", args, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "saved cpu estimator to "+out) {
			t.Errorf("run(%q) printed %q", args, stdout.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
		est, err := repro.LoadFile(out)
		if err != nil {
			t.Fatalf("load %s: %v", out, err)
		}
		if est.Resource() != repro.CPUTime {
			t.Errorf("%s loaded as a %v estimator", out, est.Resource())
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("-train-workers 1 and 3 saved different files (%d vs %d bytes)", len(files[0]), len(files[1]))
	}
}

// TestRunRejectsUnknownResource pins the non-zero exit, with the bad
// name reported, before any work is done.
func TestRunRejectsUnknownResource(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-resource", "bogus", "-out", filepath.Join(t.TempDir(), "m.json")}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("-resource bogus exited 0")
	}
	if !strings.Contains(stderr.String(), `unknown resource "bogus"`) || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q", stderr.String(), stdout.String())
	}
}
