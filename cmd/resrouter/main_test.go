package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-replicas", " a:1, b:2 ,", "-stream-addr", ":9", "-cache", "-1", "-poll", "250ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:2"}; !reflect.DeepEqual(cfg.router.Replicas, want) {
		t.Errorf("replicas = %q, want %q", cfg.router.Replicas, want)
	}
	if cfg.addr != ":8090" || cfg.streamAddr != ":9" || cfg.router.CacheEntries != -1 ||
		cfg.router.PollInterval != 250*time.Millisecond || cfg.router.PoolSize != 2 || cfg.router.MaxInflight != 1024 {
		t.Errorf("parsed %+v", cfg)
	}
	for _, args := range [][]string{nil, {"-replicas", " , "}, {"-replicas", "a:1", "-no-such-flag"}, {"-replicas", "a:1", "-pool", "two"}} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) succeeded", args)
		}
	}
}

// TestRunServesOneEstimate starts the command's run loop over one
// in-process replica and sends one estimate through each of its
// listeners: both must answer with the replica's own bytes, and a
// signal must bring the loop down cleanly.
func TestRunServesOneEstimate(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.N = 48
	cfg.Seed = 7
	plans := make([]*plan.Plan, 0, cfg.N)
	eng := engine.New(nil)
	for _, q := range workload.GenTPCH(cfg) {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	ccfg := core.DefaultConfig()
	ccfg.Mart.Iterations = 20
	est, err := core.Train(plans[:40], plan.CPUTime, nil, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(serve.Options{})
	defer svc.Close()
	svc.Registry().Publish("", est)
	ss, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	svc.SetStreamAddr(ss.Addr())
	replica := httptest.NewServer(svc.Handler())
	defer replica.Close()

	wire, err := plan.EncodeJSON(plans[44])
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(stream.Request{Schema: "tpch", Resource: "cpu", Plan: wire})
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) []byte {
		t.Helper()
		resp, err := http.Post(base+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/estimate: status %d, error %v: %s", base, resp.StatusCode, err, out)
		}
		return out
	}
	post(replica.URL) // warm, so every later answer carries the same cache counters
	want := post(replica.URL)

	parsed, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0", "-replicas", replica.URL}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	type addrs struct{ http, stream string }
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() { done <- run(parsed, stop, func(h, s string) { ready <- addrs{h, s} }) }()
	var at addrs
	select {
	case at = <-ready:
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	}

	if got := post("http://" + at.http); !bytes.Equal(got, want) {
		t.Errorf("router HTTP answered %s, replica %s", got, want)
	}
	cl, err := stream.Dial(at.stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.EstimateBytes(context.Background(), body)
	cl.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("router stream answered %s (error %v), replica %s", got, err, want)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run still serving 15 s after the signal")
	}
}
