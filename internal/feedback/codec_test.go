package feedback

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// executedPlans builds a small executed workload shared by the codec,
// log and loop tests.
func executedPlans(t testing.TB, seed uint64, n int) []*plan.Plan {
	t.Helper()
	qs := workload.GenTPCH(workload.Config{Seed: seed, N: n, SFs: []float64{1, 2, 4}, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		eng.Run(q.Plan)
		plans[i] = q.Plan
	}
	return plans
}

func decodeOne(t *testing.T, rec []byte) (*Observation, int64) {
	t.Helper()
	payload, size, err := readRecord(bufio.NewReader(bytes.NewReader(rec)))
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	obs, err := DecodeObservation(payload)
	if err != nil {
		t.Fatalf("DecodeObservation: %v", err)
	}
	return obs, size
}

// TestObservationRoundTripProperty encodes randomized observations and
// checks every field — including the embedded plan, byte-identically via
// the plan codec's deterministic encoding — survives the round trip.
func TestObservationRoundTripProperty(t *testing.T) {
	plans := executedPlans(t, 11, 16)
	rng := rand.New(rand.NewSource(23))
	schemas := []string{"", "tpch", "tpcds", "schema-with-∆-unicode", string(make([]byte, 300))}
	for i := 0; i < 200; i++ {
		in := &Observation{
			Schema:       schemas[rng.Intn(len(schemas))],
			Resource:     plan.ResourceKind(rng.Intn(2)),
			ModelVersion: rng.Uint64(),
			Predicted:    math.Exp(rng.NormFloat64() * 20), // spans tiny..huge
			Plan:         plans[rng.Intn(len(plans))],
			UnixNanos:    rng.Int63(),
		}
		switch i % 7 {
		case 3:
			in.Predicted = 0
		case 5:
			in.Predicted = math.MaxFloat64
		}
		rec, err := EncodeObservation(nil, in)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		out, size := decodeOne(t, rec)
		if size != int64(len(rec)) {
			t.Fatalf("iter %d: decoded %d of %d bytes", i, size, len(rec))
		}
		// Behind an earlier record the same bytes follow: the header is
		// patched where the record starts, not at the front of dst.
		two, err := EncodeObservation(bytes.Clone(rec), in)
		if err != nil || !bytes.Equal(two, append(bytes.Clone(rec), rec...)) {
			t.Fatalf("iter %d: appending behind a record wrote different bytes (%v)", i, err)
		}
		if out.Schema != in.Schema || out.Resource != in.Resource ||
			out.ModelVersion != in.ModelVersion || out.UnixNanos != in.UnixNanos ||
			out.Predicted != in.Predicted {
			t.Fatalf("iter %d: scalar fields changed: %+v vs %+v", i, out, in)
		}
		wantPlan, _ := plan.EncodeJSON(in.Plan)
		gotPlan, err := plan.EncodeJSON(out.Plan)
		if err != nil {
			t.Fatalf("iter %d: re-encode decoded plan: %v", i, err)
		}
		if !bytes.Equal(wantPlan, gotPlan) {
			t.Fatalf("iter %d: plan changed in round trip", i)
		}
		if out.Actual() != in.Actual() {
			t.Fatalf("iter %d: actuals changed: %v vs %v", i, out.Actual(), in.Actual())
		}
	}
}

// TestEncodeObservationWire records a plan's wire bytes as they are:
// canonical bytes give the record EncodeObservation writes, any other
// spelling lands in the plan field verbatim and decodes to the same
// plan.
func TestEncodeObservationWire(t *testing.T) {
	for i, p := range executedPlans(t, 15, 8) {
		obs := &Observation{Schema: "tpch", Resource: plan.CPUTime, ModelVersion: 3, Predicted: 2.5, Plan: p, UnixNanos: 9, RequestID: "r"}
		canonical, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeObservation(nil, obs)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := encodeObservation(nil, obs, canonical); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("plan %d: canonical wire bytes wrote a different record (%v)", i, err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, canonical, "", "  "); err != nil {
			t.Fatal(err)
		}
		rec, err := encodeObservation(nil, obs, indented.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(rec, indented.Bytes()) {
			t.Fatalf("plan %d: the record does not carry the wire bytes", i)
		}
		out, _ := decodeOne(t, rec)
		got, err := plan.EncodeJSON(out.Plan)
		if err != nil || !bytes.Equal(got, canonical) || out.RequestID != obs.RequestID {
			t.Fatalf("plan %d: wire record decoded to a different observation (%v)", i, err)
		}
	}
}

func TestEncodeRejectsBadObservations(t *testing.T) {
	if _, err := EncodeObservation(nil, &Observation{}); err == nil {
		t.Fatal("encoded observation without plan")
	}
	p := executedPlans(t, 12, 1)[0]
	if _, err := EncodeObservation(nil, &Observation{Schema: string(make([]byte, maxSchemaLen)), Plan: p}); err == nil {
		t.Fatal("encoded oversized schema")
	}
}

// TestReadRecordDetectsCorruption damages an encoded record every way a
// crash (or bit rot) can and checks each is reported as corruption, not
// silently decoded.
func TestReadRecordDetectsCorruption(t *testing.T) {
	p := executedPlans(t, 13, 1)[0]
	rec, err := EncodeObservation(nil, &Observation{Schema: "tpch", Plan: p, Predicted: 42})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte, wantCorrupt bool) {
		t.Helper()
		_, _, err := readRecord(bufio.NewReader(bytes.NewReader(data)))
		if wantCorrupt && !errorsIsCorrupt(err) {
			t.Fatalf("%s: err = %v, want corruption", name, err)
		}
		if !wantCorrupt && err != nil {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
	}
	check("intact", rec, false)
	check("torn header", rec[:7], true)
	check("torn payload", rec[:len(rec)-3], true)
	flipped := append([]byte(nil), rec...)
	flipped[len(flipped)-1] ^= 0xff
	check("flipped payload byte", flipped, true)
	badMagic := append([]byte(nil), rec...)
	badMagic[0] ^= 0xff
	check("bad magic", badMagic, true)
	badLen := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(badLen[4:], maxRecordSize+1)
	check("implausible length", badLen, true)
}

func errorsIsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

func TestDecodeObservationRejectsBadPayloads(t *testing.T) {
	p := executedPlans(t, 14, 1)[0]
	rec, err := EncodeObservation(nil, &Observation{Schema: "tpch", Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	payload := rec[recordHeader:]
	for name, mutate := range map[string]func([]byte) []byte{
		"short":          func(b []byte) []byte { return b[:10] },
		"bad version":    func(b []byte) []byte { b[0] = 99; return b },
		"bad resource":   func(b []byte) []byte { b[1] = 7; return b },
		"truncated plan": func(b []byte) []byte { return b[:len(b)-5] },
	} {
		mutated := mutate(append([]byte(nil), payload...))
		if _, err := DecodeObservation(mutated); err == nil {
			t.Fatalf("%s payload decoded", name)
		}
	}
}
