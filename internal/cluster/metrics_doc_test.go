package cluster_test

// The Prometheus expositions of both binaries, checked against the
// exposition format and against README's metric reference: every
// family one contiguous block under one header, and every family the
// processes emit a row of the reference (and every row emitted), with
// its type and label names.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// family is what one exposition says of one metric family.
type family struct {
	typ    string
	labels map[string]bool // label names, without quantile/le on summaries/histograms
}

// parseExposition checks that every family in text is one contiguous
// block opened by a single TYPE header (HELP, when present, right
// before it) and returns the families by name.
func parseExposition(t *testing.T, text string) map[string]*family {
	t.Helper()
	fams := make(map[string]*family)
	var cur string
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			cur = "" // a header ends the block before it
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE header %q", i+1, line)
			}
			if fams[f[2]] != nil {
				t.Errorf("line %d: family %s split: a second TYPE header", i+1, f[2])
			}
			cur = f[2]
			fams[cur] = &family{typ: f[3], labels: map[string]bool{}}
		default:
			name, labels := parseSample(t, line)
			fam := fams[cur]
			if fam == nil || !inFamily(name, cur, fam.typ) {
				t.Errorf("line %d: sample %s outside its family's block (in %q)", i+1, name, cur)
				continue
			}
			for _, l := range labels {
				if (l == "quantile" && fam.typ == "summary") || (l == "le" && fam.typ == "histogram") {
					continue
				}
				fam.labels[l] = true
			}
		}
	}
	return fams
}

func inFamily(sample, fam, typ string) bool {
	if sample == fam {
		return true
	}
	suffix, ok := strings.CutPrefix(sample, fam)
	if !ok {
		return false
	}
	switch typ {
	case "summary":
		return suffix == "_sum" || suffix == "_count"
	case "histogram":
		return suffix == "_sum" || suffix == "_count" || suffix == "_bucket"
	}
	return false
}

// parseSample splits `name{k="v",...} value` into the name and the
// label names; values may hold escaped quotes and commas.
func parseSample(t *testing.T, line string) (string, []string) {
	t.Helper()
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		t.Fatalf("malformed sample %q", line)
	}
	name, rest := line[:end], line[end:]
	var labels []string
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				t.Fatalf("malformed labels in %q", line)
			}
			labels = append(labels, strings.TrimPrefix(rest[:eq], ","))
			rest = rest[eq+2:]
			for j := 0; ; j++ {
				if j >= len(rest) {
					t.Fatalf("unterminated label value in %q", line)
				}
				if rest[j] == '\\' {
					j++
				} else if rest[j] == '"' {
					rest = rest[j+1:]
					break
				}
			}
		}
	}
	return name, labels
}

// readmeReference parses README's metric reference: the table rows of
// the Observability section, `family` | type | `label`, ... or — | meaning.
func readmeReference(t *testing.T) map[string]*family {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("^\\| `((?:resserve|resrouter)_[a-z0-9_]+)` \\| ([a-z]+) \\| ([^|]*) \\|")
	label := regexp.MustCompile("`([a-z_]+)`")
	ref := make(map[string]*family)
	for _, line := range strings.Split(section, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if ref[m[1]] != nil {
			t.Errorf("README lists %s twice", m[1])
		}
		f := &family{typ: m[2], labels: map[string]bool{}}
		for _, l := range label.FindAllStringSubmatch(m[3], -1) {
			f.labels[l[1]] = true
		}
		ref[m[1]] = f
	}
	return ref
}

func labelList(m map[string]bool) string {
	var out []string
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// populatedReplica is a resserve with every collector fed: a store, a
// feedback loop holding two routes, the stream listener, and traffic on
// all three estimate endpoints. It returns the served exposition and
// the debug listener's (which embeds it beside the runtime gauges).
func populatedReplica(t *testing.T) (served, debug string) {
	setup(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.AttachStore(st, nil)
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	loop, err := feedback.New(feedback.Options{Dir: t.TempDir(), Publisher: reg, DriftThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := serve.New(serve.Options{Registry: reg, Feedback: loop})
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	svc.Obs().Register(ss.Collector())
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); ss.Close(); svc.Close() })
	hs := ts.URL

	for _, p := range testPlans[:4] {
		for _, res := range []string{"cpu", "io"} {
			body := estimateBody(t, "tpch", p, res)
			postOK(t, hs, "/estimate", body)
			postOK(t, hs, "/estimate", body) // a replay
			enc, err := plan.EncodeJSON(p)
			if err != nil {
				t.Fatal(err)
			}
			obsBody, _ := json.Marshal(map[string]any{"schema": "tpch", "resource": res, "plan": json.RawMessage(enc)})
			if status, out := post(t, hs, "/observe", obsBody); status != http.StatusAccepted {
				t.Fatalf("POST /observe: status %d: %s", status, out)
			}
		}
	}
	encoded := make([]json.RawMessage, 0, 4)
	for _, p := range testPlans[:4] {
		enc, _ := plan.EncodeJSON(p)
		encoded = append(encoded, enc)
	}
	batch, _ := json.Marshal(map[string]any{"schema": "tpch", "resource": "cpu", "plans": encoded})
	postOK(t, hs, "/estimate/batch", batch)
	cl, err := stream.Dial(ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, p := range testPlans[4:6] {
		if _, err := cl.EstimateBytes(context.Background(), estimateBody(t, "tpch", p, "cpu")); err != nil {
			t.Fatal(err)
		}
	}

	served = getMetricsText(t, hs)
	dreg := obs.NewRegistry()
	dreg.Register(svc.Obs().Collector())
	dreg.Register(obs.RuntimeCollector("resserve_process_"))
	var b bytes.Buffer
	if err := dreg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return served, b.String()
}

// TestMetricReferenceMatchesREADME fails when a family either binary
// emits is missing from README's metric reference, when a row there is
// never emitted, or when a row's type or labels differ from the
// exposition's.
func TestMetricReferenceMatchesREADME(t *testing.T) {
	served, debug := populatedReplica(t)
	parseExposition(t, served)
	emitted := parseExposition(t, debug)

	reps := []*testReplica{newTestReplica(t), newTestReplica(t)}
	_, rhs := newRouter(t, reps, nil)
	for _, p := range testPlans[:4] {
		postOK(t, rhs.URL, "/estimate", estimateBody(t, "tpch", p, "cpu"))
	}
	for name, f := range parseExposition(t, getMetricsText(t, rhs.URL)) {
		emitted[name] = f
	}

	ref := readmeReference(t)
	for name, f := range emitted {
		r := ref[name]
		switch {
		case r == nil:
			t.Errorf("%s (%s, labels %q) is emitted but not in README's metric reference", name, f.typ, labelList(f.labels))
		case r.typ != f.typ || labelList(r.labels) != labelList(f.labels):
			t.Errorf("README lists %s as %s with labels %q; emitted as %s with %q",
				name, r.typ, labelList(r.labels), f.typ, labelList(f.labels))
		}
	}
	for name := range ref {
		if emitted[name] == nil {
			t.Errorf("README's metric reference lists %s, which is never emitted", name)
		}
	}
}

// getMetricsText fetches url's Prometheus exposition.
func getMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	return string(out)
}
