package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

func slabSetup(t testing.TB) (*Estimator, []*plan.Plan) {
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
// the bytes earlier formats wrote for the golden estimator are not a
// usable slab, so the store demotes such a snapshot to its JSON blob.
// cpu.v1.slab is format 1 (root-to-leaf node slabs), cpu.v2.slab format
// 2 (a binary META section), and cpu.q.slab format 2 as builds wrote it
// beside a float32-quantized QMARTS section, with flag bit 0 set.
func TestSlabFormat1Declines(t *testing.T) {
	for _, name := range []string{"cpu.v1.slab", "cpu.v2.slab", "cpu.q.slab"} {
		t.Run(name, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", "golden", name))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(old[4:]); v >= estSlabFormat {
				t.Fatalf("fixture has format %d, want one below %d", v, estSlabFormat)
			}
			for _, quant := range []bool{false, true} {
				if _, _, err := LoadEstimatorSlab(old, quant); !errors.Is(err, ErrSlab) {
					t.Fatalf("quantized=%v: LoadEstimatorSlab returned %v, want ErrSlab", quant, err)
				}
			}
		})
	}
}

// TestSlabMetaIsSaveEnvelope pins one metadata schema: a slab's META
// section decodes to exactly the envelope Save writes, once each
// candidate's "mart" blob (Save) and "slab" references (META) are
// removed.
func TestSlabMetaIsSaveEnvelope(t *testing.T) {
	est, _ := slabSetup(t)
	data, err := est.EncodeSlab()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if kind := le.Uint32(data[estSlabHeaderSize:]); kind != sectMeta {
		t.Fatalf("first section has kind %d, want META", kind)
	}
	off := le.Uint64(data[estSlabHeaderSize+8:])
	meta := data[off : off+le.Uint64(data[estSlabHeaderSize+16:])]
	var saved bytes.Buffer
	if err := est.Save(&saved); err != nil {
		t.Fatal(err)
	}
	strip := func(what string, b []byte, field string) map[string]any {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		n := 0
		for _, op := range doc["ops"].([]any) {
			for _, c := range op.(map[string]any)["candidates"].([]any) {
				c := c.(map[string]any)
				if _, ok := c[field]; !ok {
					t.Fatalf("%s: a candidate has no %q", what, field)
				}
				delete(c, field)
				n++
			}
		}
		if n != est.NumModels() {
			t.Fatalf("%s: %d candidates, want %d", what, n, est.NumModels())
		}
		return doc
	}
	if got, want := strip("META", meta, "slab"), strip("Save", saved.Bytes(), "mart"); !reflect.DeepEqual(got, want) {
		t.Fatal("META is not Save's envelope without the blobs")
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
