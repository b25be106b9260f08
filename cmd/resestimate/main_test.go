package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// trainPair trains a small CPU and I/O estimator pair, as restrain would.
func trainPair(t *testing.T) []*repro.Estimator {
	t.Helper()
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	ests, err := repro.TrainSet(qs, repro.TrainOptions{BoostingIterations: 10}, repro.CPUTime, repro.LogicalIO)
	if err != nil {
		t.Fatal(err)
	}
	return ests
}

// TestRunReportsFromModelFileAndStore drives the command's own parse
// and run against the file restrain writes (Estimator.SaveFile) and
// against a store snapshot: the table's first estimate is the
// library's, one section per resource comes out of the store, and
// naming both sources is refused before any work.
func TestRunReportsFromModelFileAndStore(t *testing.T) {
	ests := trainPair(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "cpu-model.json")
	if err := ests[0].SaveFile(model); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	st, err := repro.OpenModelStore(storeDir, repro.ModelStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.SaveSnapshot(st, "tpch", "test", ests...); err != nil {
		t.Fatal(err)
	}

	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 6, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	firstRow := func(e *repro.Estimator) string {
		return fmt.Sprintf("%-32s %14.1f", qs[0].Plan.Tag, e.EstimateQuery(qs[0]))
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-model", model, "-n", "6"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) = %d, stderr:\n%s", args, code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, firstRow(ests[0])) || strings.Count(out, "\n") != 6+3 || !strings.Contains(out, "\nL1 err ") {
		t.Errorf("run(%q) printed:\n%s\nwant a header, 6 rows starting with %q, and the error summary", args, out, firstRow(ests[0]))
	}

	stdout.Reset()
	args = []string{"-store", storeDir, "-n", "6"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) = %d, stderr:\n%s", args, code, stderr.String())
	}
	out = stdout.String()
	if !strings.HasPrefix(out, "snapshot v1 (") || strings.Count(out, "\nL1 err ") != 2 {
		t.Errorf("run(%q) printed:\n%s\nwant snapshot v1 and one section per resource", args, out)
	}
	for _, e := range ests {
		if section := fmt.Sprintf("\n== %s ==\n", e.Resource()); !strings.Contains(out, section) || !strings.Contains(out, firstRow(e)) {
			t.Errorf("run(%q): no %q section with row %q in:\n%s", args, section, firstRow(e), out)
		}
	}

	stdout.Reset()
	args = []string{"-model", model, "-store", storeDir}
	if code := run(args, &stdout, &stderr); code == 0 {
		t.Fatalf("run(%q) exited 0", args)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") || stdout.Len() != 0 {
		t.Errorf("run(%q): stderr %q, stdout %q", args, stderr.String(), stdout.String())
	}
}
