package cluster_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/feedback"
	"repro/internal/plan"
)

// TestForwarderShipsLargeRecord: an observation whose record is larger
// than a log segment's 4 MiB rotation size — a plan scanning a table
// with a 5 MiB name — is forwarded whole, as the retrainer's segment
// endpoint takes it, and once.
func TestForwarderShipsLargeRecord(t *testing.T) {
	dir := t.TempDir()
	loop, err := feedback.New(feedback.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	scan := plan.NewLeaf(plan.TableScan, strings.Repeat("t", 5<<20))
	scan.TableRows, scan.TablePages = 8, 2
	scan.Actual.CPU = 1.5
	if err := loop.Observe(&feedback.Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: plan.New(scan, "large")}); err != nil {
		t.Fatal(err)
	}
	var received []int
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := feedback.DecodeRecords(r.Body, func(*feedback.Observation) error { return nil })
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		received = append(received, n)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer target.Close()
	fw, err := cluster.NewForwarder(cluster.ForwarderOptions{Dir: dir, Target: target.URL, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	for pass := range 2 {
		if n, err := fw.ForwardNow(); err != nil || n != 1-pass {
			t.Fatalf("forward pass %d: %d records acknowledged (%v), want %d", pass, n, err, 1-pass)
		}
	}
	if len(received) != 1 || received[0] != 1 {
		t.Fatalf("the target received pushes of %v records, want one of 1", received)
	}
}
