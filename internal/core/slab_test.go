package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/plan"
)

// slabEstimator trains the estimator the slab tests share (sync.Once:
// training dominates the package's test time, the slab codec does not).
var slabOnce sync.Once
var slabEst *Estimator
var slabPlans []*plan.Plan

func slabSetup(t *testing.T) (*Estimator, []*plan.Plan) {
	t.Helper()
	slabOnce.Do(func() {
		plans := execPlans(33, 64)
		cfg := DefaultConfig()
		cfg.Mart.Iterations = 50
		est, err := Train(plans[:48], plan.CPUTime, NewScaleTable(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		slabEst, slabPlans = est, plans[48:]
	})
	if slabEst == nil {
		t.Fatal("slab estimator failed to train")
	}
	return slabEst, slabPlans
}

// slabCases flattens the held-out plans into (kind, vector) pairs
// covering every trained operator.
func slabCases(est *Estimator, test []*plan.Plan) ([]plan.OpKind, []features.Vector) {
	var kinds []plan.OpKind
	var vecs []features.Vector
	for _, p := range test {
		pv := features.ExtractPlan(p, est.Mode)
		for i, n := range p.Nodes() {
			kinds = append(kinds, n.Kind)
			vecs = append(vecs, pv[i])
		}
	}
	return kinds, vecs
}

// TestEstimatorSlabBitIdentical is the acceptance-criteria test: an
// estimator restored from its slab — the zero-copy mmap-style path —
// predicts bit-identically (Float64bits) to the heap-compiled original,
// through the single-vector, batch and whole-plan surfaces.
func TestEstimatorSlabBitIdentical(t *testing.T) {
	est, test := slabSetup(t)
	data, err := est.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	dec, usedQ, err := LoadEstimatorSlab(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if usedQ {
		t.Fatal("exact load reported quantized")
	}
	if dec.NumModels() != est.NumModels() || dec.TrainSamples() != est.TrainSamples() {
		t.Fatalf("restored %d models / %d samples, want %d / %d",
			dec.NumModels(), dec.TrainSamples(), est.NumModels(), est.TrainSamples())
	}
	if (dec.Baseline == nil) != (est.Baseline == nil) {
		t.Fatal("baseline presence diverged")
	}

	kinds, vecs := slabCases(est, test)
	batch := dec.PredictBatch(kinds, vecs, nil)
	for i := range kinds {
		want := est.PredictVector(kinds[i], &vecs[i])
		if got := dec.PredictVector(kinds[i], &vecs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%s): slab %v != heap %v", i, kinds[i], got, want)
		}
		if math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("case %d (%s): slab batch %v != heap %v", i, kinds[i], batch[i], want)
		}
	}
	for i, p := range test {
		want := est.PredictPlan(p)
		if got := dec.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("plan %d: slab %v != heap %v", i, got, want)
		}
	}
}

// TestEstimatorSlabSaveByteIdentical pins the republish path: Save on a
// slab-restored estimator (which never materializes mart.Model — the
// retained §7.3 blobs stand in) must emit byte-identical output to Save
// on the original. The serving registry re-persists restored estimators
// and diffs snapshots by content hash, so byte drift would churn every
// snapshot after a restart.
func TestEstimatorSlabSaveByteIdentical(t *testing.T) {
	est, _ := slabSetup(t)
	data, err := est.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := LoadEstimatorSlab(data, false)
	if err != nil {
		t.Fatal(err)
	}
	var orig, restored bytes.Buffer
	if err := est.Save(&orig); err != nil {
		t.Fatal(err)
	}
	if err := dec.Save(&restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), restored.Bytes()) {
		t.Fatal("slab-restored Save output differs from original")
	}
	// And the slab re-encodes to the same bytes too.
	again, err := dec.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("slab-restored EncodeSlab output differs from original slab")
	}
}

// TestEstimatorSlabQuantized pins the rollout from earlier builds,
// which wrote a float32-quantized QMARTS section beside the exact one
// and set flag bit 0. cpu.q.slab is what they wrote for the golden
// estimator (today's cpu.slab before the section went): it loads, with
// wantQuantized either way, into the exact layout, and predicts
// bit-identically to the freshly trained estimator.
func TestEstimatorSlabQuantized(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden", "cpu.q.slab"))
	if err != nil {
		t.Fatal(err)
	}
	if flags := binary.LittleEndian.Uint16(old[6:]); flags&1 == 0 {
		t.Fatalf("fixture flags %#x: want the quantized bit set", flags)
	}
	est := slabGoldenEstimator(t)
	kinds, vecs := slabCases(est, execPlans(21, 32)[24:])
	for _, quant := range []bool{false, true} {
		dec, usedQ, err := LoadEstimatorSlab(old, quant)
		if err != nil {
			t.Fatalf("wantQuantized=%v: %v", quant, err)
		}
		if usedQ {
			t.Fatalf("wantQuantized=%v: load reported the quantized layout", quant)
		}
		batch := dec.PredictBatch(kinds, vecs, nil)
		for i := range kinds {
			want := est.PredictVector(kinds[i], &vecs[i])
			if got := dec.PredictVector(kinds[i], &vecs[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("wantQuantized=%v case %d (%s): %v != %v", quant, i, kinds[i], got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("wantQuantized=%v case %d (%s): batch %v != %v", quant, i, kinds[i], batch[i], want)
			}
		}
	}
}

// TestEstimatorSlabRejectsCorruption checks that header, section-table
// and payload mutations all fail decode with an error — never a panic,
// never a silently wrong estimator. (CRC catches the payload flips;
// deeper structural attacks are covered by FuzzSlabDecode.)
func TestEstimatorSlabRejectsCorruption(t *testing.T) {
	est, _ := slabSetup(t)
	data, err := est.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, fn func(b []byte) []byte) {
		t.Helper()
		b := fn(append([]byte(nil), data...))
		if _, _, err := LoadEstimatorSlab(b, false); err == nil {
			t.Fatalf("%s: accepted corrupt slab", name)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("future format", func(b []byte) []byte { b[4] = 99; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("extended", func(b []byte) []byte { return append(b, 0) })
	mutate("section offset out of file", func(b []byte) []byte {
		b[estSlabHeaderSize+8] = 0xFF
		b[estSlabHeaderSize+9] = 0xFF
		return b
	})
	mutate("payload flip fails CRC", func(b []byte) []byte {
		b[len(b)-9] ^= 0xFF
		return b
	})
	mutate("meta payload flip fails CRC", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[estSlabHeaderSize+8:])
		b[off+16] ^= 0xFF
		return b
	})
}

// slabGoldenPath pins the on-disk encoding of a small deterministic
// estimator. Like testdata/golden, regenerate deliberately with
//
//	go test ./internal/core -run TestSlabGolden -update
//
// when the format version changes, and eyeball the size/diff.
func slabGoldenPath() string { return filepath.Join("testdata", "golden", "cpu.slab") }

func slabGoldenEstimator(t *testing.T) *Estimator {
	t.Helper()
	plans := execPlans(21, 32)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 10
	est, err := Train(plans[:24], plan.CPUTime, NewScaleTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestSlabFormat1Declines pins the rollout contract of a format bump:
// the bytes the previous format wrote for the golden estimator
// (cpu.v1.slab, today's cpu.slab before estSlabFormat became 2) are not
// a usable slab, so the store demotes such a snapshot to its JSON blob.
func TestSlabFormat1Declines(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden", "cpu.v1.slab"))
	if err != nil {
		t.Fatal(err)
	}
	for _, quant := range []bool{false, true} {
		if _, _, err := LoadEstimatorSlab(v1, quant); !errors.Is(err, ErrSlab) {
			t.Fatalf("format-1 slab (quantized=%v): LoadEstimatorSlab returned %v, want ErrSlab", quant, err)
		}
	}
}

func TestSlabGolden(t *testing.T) {
	est := slabGoldenEstimator(t)
	data, err := est.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	path := slabGoldenPath()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(data))
		return
	}

	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden slab (regenerate with -update): %v", err)
	}
	if !bytes.Equal(golden, data) {
		t.Fatalf("slab encoding drifted from golden (%d bytes vs %d). If the format "+
			"deliberately changed, bump the format version and regenerate with -update.",
			len(data), len(golden))
	}
	// The pinned bytes must load and predict identically to the freshly
	// trained estimator — the file is a contract, not just a byte dump.
	dec, _, err := LoadEstimatorSlab(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	kinds, vecs := slabCases(est, execPlans(21, 32)[24:])
	for i := range kinds {
		want := est.PredictVector(kinds[i], &vecs[i])
		if got := dec.PredictVector(kinds[i], &vecs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: golden slab prediction %v != %v", i, got, want)
		}
	}
}

// TestSlabNegativeCountRejected pins META counts against a 32-bit int:
// a candidate whose input count has its top bit set must fail decode
// with ErrSlab (it is far above the cap), not turn negative and panic
// in make, which it did under GOARCH=386. The META CRC is recomputed,
// so the count itself is what the decoder judges.
func TestSlabNegativeCountRejected(t *testing.T) {
	data, err := slabGoldenEstimator(t).EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if kind := le.Uint32(data[estSlabHeaderSize:]); kind != sectMeta {
		t.Fatalf("first section has kind %d, want META", kind)
	}
	metaOff := le.Uint64(data[estSlabHeaderSize+8:])
	metaLen := le.Uint64(data[estSlabHeaderSize+16:])
	meta := data[metaOff : metaOff+metaLen]
	// Walk to the first candidate's input count: resource, mode,
	// fallback mean, baseline, op count, then the first op's kind,
	// sample count, default index and candidate count, then the
	// candidate's scales.
	r := &metaReader{b: meta}
	r.u32()
	r.u32()
	r.f64()
	if r.u8() == 1 {
		r.take(32)
	}
	r.u32()
	r.u32()
	r.u64()
	r.u32()
	r.u32()
	r.take(12 * int(r.u32()))
	if r.err != nil {
		t.Fatal(r.err)
	}
	le.PutUint32(meta[r.off:], 1<<31)
	le.PutUint32(data[estSlabHeaderSize+4:], crc32.Checksum(meta, slabCRC))
	if _, _, err := LoadEstimatorSlab(data, false); !errors.Is(err, ErrSlab) {
		t.Fatalf("input count 2^31: LoadEstimatorSlab returned %v, want ErrSlab", err)
	}
}
