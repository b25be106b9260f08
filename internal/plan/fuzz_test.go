package plan_test

// Fuzz target for the plan wire codec: DecodeJSON must never panic on
// arbitrary bytes, and any input it accepts must re-encode to a stable
// canonical form (encode∘decode is a fixed point). Seed corpus lives in
// testdata/fuzz/FuzzPlanCodec; CI runs a short -fuzz smoke on top of
// the corpus replay that plain `go test` performs.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

func FuzzPlanCodec(f *testing.F) {
	// Seed with real encoded plans across schema families (executed, so
	// Actual fields are exercised too) plus structurally interesting
	// near-misses.
	eng := engine.New(nil)
	cfg := workload.DefaultConfig()
	cfg.N = 4
	for i, gen := range []func() []*workload.Query{
		func() []*workload.Query { return workload.GenTPCH(cfg) },
		func() []*workload.Query { return workload.GenGeneric("tpcds", cfg, 2, 5) },
	} {
		cfg.Seed = uint64(500 + i)
		for _, q := range gen() {
			eng.Run(q.Plan)
			enc, err := plan.EncodeJSON(q.Plan)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"root":{"kind":"TableScan","table":"t","table_rows":1,"table_pages":1}}`))
	f.Add([]byte(`{"version":1,"root":{"kind":"NoSuchOp"}}`))
	f.Add([]byte(`{"version":1,"root":{"kind":"Sort","children":[]}}`))
	f.Add([]byte(`{"version":1,"root":{"kind":"TableScan","table":"t","table_rows":-1,"table_pages":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := plan.DecodeJSON(data) // must never panic
		if err != nil {
			return
		}
		// Accepted plans satisfy the structural invariants...
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeJSON accepted an invalid plan: %v", err)
		}
		// ...and round-trip through the canonical encoding.
		enc1, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatalf("decoded plan does not re-encode: %v", err)
		}
		p2, err := plan.DecodeJSON(enc1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc1)
		}
		enc2, err := plan.EncodeJSON(p2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
		if a, b := p.TotalActual(), p2.TotalActual(); a != b {
			t.Fatalf("actual totals drifted in round trip: %+v vs %+v", a, b)
		}
	})
}

// FuzzPlanDecode pins the single-pass decoder to encoding/json: for
// every input, either the fast path declines — and DecodeJSON then
// fails with stdlib's error text or returns stdlib's plan — or its plan
// is reflect.DeepEqual to stdlib's and re-encodes byte-identically.
// Seeds: the FuzzPlanCodec corpus plus the edge cases of decode_test.go.
func FuzzPlanDecode(f *testing.F) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPlanCodec/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("FuzzPlanCodec corpus: %d files, %v", len(files), err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(seed))
	}
	for _, c := range decodeEdgeCases() {
		f.Add([]byte(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeAgainstStd(t, data) })
}

// checkDecodeAt decodes data where the envelope walker meets a plan:
// at an offset, between other bytes of a larger body. Whatever the
// decoder takes there is the plan stdlib decodes from the extent it
// reports, and a plan the fast path took alone (want) it takes again,
// ending where the plan ends.
func checkDecodeAt(t *testing.T, data []byte, want *plan.Plan) {
	t.Helper()
	const before, after = `{"schema":"s","plan":`, `,"timeout_ms":5}`
	body := append(append([]byte(before), data...), after...)
	// The arena is a batch's: a plan cut short has used it before, and
	// what it wrote must not show in the next one.
	var d plan.Decoder
	cut := `{"version":1,"root":{"kind":"Sort","sort_cols":3,"children":[{"kind":"TableScan","table":"x","table_rows":9,"table_pages":9,"out_rows":9}`
	if _, _, ok := d.DecodeAt([]byte(cut+strings.Repeat(" ", 2048)), 0); ok {
		t.Fatal("fast path took a truncated plan")
	}
	at := len(before) + len(data) - len(bytes.TrimLeft(data, " \t\r\n"))
	got, end, ok := d.DecodeAt(body, at)
	if !ok {
		if want != nil {
			t.Fatalf("fast path took %q alone and declined it at offset %d", data, at)
		}
		return
	}
	if ref, err := plan.DecodeStd(body[at:end]); err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("at offset %d the fast path took %q, stdlib: %v\nfast\n%v\nstdlib\n%v", at, body[at:end], err, got, ref)
	}
	if want != nil && (!reflect.DeepEqual(got, want) || end != len(before)+len(bytes.TrimRight(data, " \t\r\n"))) {
		t.Fatalf("at offset %d the fast path read %q to %d:\n%v\nalone:\n%v", at, data, end, got, want)
	}
}

// checkDecodeAgainstStd runs one input through both decoders, asserts
// the differential contract and reports whether the fast path took it.
func checkDecodeAgainstStd(t *testing.T, data []byte) (fastTook bool) {
	t.Helper()
	ref, refErr := plan.DecodeStd(data)
	fast, ok := plan.FastDecode(data)
	checkDecodeAt(t, data, fast)
	if !ok {
		// Declined: DecodeJSON must be the stdlib path, errors and all.
		fast, err := plan.DecodeJSON(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("DecodeJSON error %v, stdlib %v, on %q", err, refErr, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fallback plan differs from stdlib's on %q", data)
		}
		return false
	}
	if refErr != nil {
		t.Fatalf("fast path accepted input stdlib rejects: %q (%v)", data, refErr)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path diverges on %q:\nfast\n%v\nstdlib\n%v", data, fast, ref)
	}
	encFast, err := plan.EncodeJSON(fast)
	if err != nil {
		t.Fatal(err)
	}
	encRef, err := plan.EncodeJSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encFast, encRef) {
		t.Fatalf("re-encodings differ on %q:\n%s\nvs\n%s", data, encFast, encRef)
	}
	return true
}
