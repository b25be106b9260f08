package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunExperiments runs the runner-free experiment, a runner-backed
// figure and each table of the grid at tiny size through the command's
// own parse and run, each under its own name and heading.
func TestRunExperiments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table13", "-t13iters", "5"}, "Table 13 — Training Times (seconds) for M=5 boosting iterations\n"},
		{[]string{"-exp", "fig1", "-size", "0.05", "-iters", "10"}, "Figure 1 — "},
		{[]string{"-exp", "table4", "-size", "0.05", "-iters", "10"}, "Table 4 — "},
		{[]string{"-exp", "table5", "-size", "0.05", "-iters", "10"}, "Table 5 — "},
		{[]string{"-exp", "table6", "-size", "0.05", "-iters", "10"}, "Table 6 — "},
		{[]string{"-exp", "table7", "-size", "0.05", "-iters", "10"}, "Table 7 — "},
		{[]string{"-exp", "table8", "-size", "0.05", "-iters", "10"}, "Table 8 — "},
		{[]string{"-exp", "table9", "-size", "0.05", "-iters", "10"}, "Table 9 — "},
		{[]string{"-exp", "table10", "-size", "0.05", "-iters", "10"}, "Table 10 — "},
		{[]string{"-exp", "table11", "-size", "0.05", "-iters", "10"}, "Table 11 — "},
		{[]string{"-exp", "table12", "-size", "0.05", "-iters", "10"}, "Table 12 — "},
	} {
		cfg, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("parseFlags(%q): %v", tc.args, err)
		}
		var stdout, stderr bytes.Buffer
		if err := run(cfg, &stdout, &stderr); err != nil {
			t.Fatalf("run(%q): %v", tc.args, err)
		}
		out := stdout.String()
		if !strings.HasPrefix(out, tc.want) || strings.Count(out, "\n") < 3 {
			t.Errorf("run(%q) printed %q, want a formatted result starting %q", tc.args, out, tc.want)
		}
		if !strings.Contains(stderr.String(), "running "+tc.args[1]+"...") {
			t.Errorf("run(%q) progress %q does not name the experiment", tc.args, stderr.String())
		}
	}
}

// TestUnknownExperiment pins the refusal of a name outside the table,
// alone or inside a comma list.
func TestUnknownExperiment(t *testing.T) {
	for _, tc := range []struct{ spec, bad string }{
		{"tabel4", `"tabel4"`},
		{"table4,fig9,fig1", `"fig9"`},
		{"table4,", `""`},
		{"all,table4", `"all"`},
		{"", `""`},
	} {
		var stderr bytes.Buffer
		if _, err := parseFlags([]string{"-exp", tc.spec}, &stderr); err == nil {
			t.Errorf("-exp %q accepted", tc.spec)
			continue
		}
		msg := stderr.String()
		if !strings.Contains(msg, "unknown experiment "+tc.bad) || !strings.Contains(msg, experimentNames()) {
			t.Errorf("-exp %q reported %q, want the bad entry %s and the valid names", tc.spec, msg, tc.bad)
		}
	}
}

// TestExperimentTable pins what the usage text and -exp resolution are
// derived from: unique names, each listed by -h, all selecting every
// row and a subset keeping table order.
func TestExperimentTable(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h returned no error")
	}
	listed := map[string]bool{}
	for _, w := range strings.FieldsFunc(usage.String(), func(r rune) bool { return r == ' ' || r == ',' || r == '\n' || r == '\t' }) {
		listed[w] = true
	}
	seen := map[string]bool{}
	for _, e := range experimentTable {
		if seen[e.name] {
			t.Errorf("experiment %q appears twice", e.name)
		}
		seen[e.name] = true
		if !listed[e.name] {
			t.Errorf("experiment %q missing from usage:\n%s", e.name, usage.String())
		}
		if e.run == nil {
			t.Errorf("experiment %q has no run function", e.name)
		}
	}
	// Every experiment selectable before the table existed.
	for _, name := range strings.Fields("table4 table5 table6 table7 table8 table9 table10 table11 table12 table13 " +
		"fig1 fig2 fig3 fig6 fig7 fig8 kcca predcost memsize") {
		if !seen[name] {
			t.Errorf("experiment %q no longer selectable", name)
		}
	}

	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experimentTable) {
		t.Errorf("all selected %d of %d experiments, error %v", len(all), len(experimentTable), err)
	}
	sub, err := selectExperiments("table13, fig2 ,table4,fig2")
	if err != nil || len(sub) != 3 || sub[0].name != "table4" || sub[1].name != "fig2" || sub[2].name != "table13" {
		t.Errorf("subset selected %v, error %v; want table4, fig2, table13", sub, err)
	}
}
