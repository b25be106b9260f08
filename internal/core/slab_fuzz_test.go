package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/plan"
)

// fuzzSlab builds the valid slab the fuzz seeds mutate: a tiny but
// real estimator (every section populated).
var fuzzSlabOnce sync.Once
var fuzzSlabBytes []byte

func fuzzSlabSeed() []byte {
	fuzzSlabOnce.Do(func() {
		plans := execPlans(12, 16)
		cfg := DefaultConfig()
		cfg.Mart.Iterations = 5
		est, err := Train(plans, plan.CPUTime, NewScaleTable(), cfg)
		if err != nil {
			panic(err)
		}
		data, err := est.EncodeSlab()
		if err != nil {
			panic(err)
		}
		fuzzSlabBytes = data
	})
	return fuzzSlabBytes
}

// fuzzSlabVariants are the committed corpus shapes: the intact slab
// plus the corruption classes the loader must reject gracefully —
// bad magic, a truncated section, a payload flip that breaks a CRC.
func fuzzSlabVariants() map[string][]byte {
	valid := fuzzSlabSeed()
	clone := func() []byte { return append([]byte(nil), valid...) }
	badMagic := clone()
	badMagic[0] ^= 0xFF
	truncated := clone()[:len(valid)-len(valid)/4]
	badCRC := clone()
	badCRC[len(badCRC)-9] ^= 0xFF
	return map[string][]byte{
		"valid":             valid,
		"bad-magic":         badMagic,
		"truncated-section": truncated,
		"bad-crc":           badCRC,
	}
}

// FuzzSlabDecode is the never-panic contract over the mmap'd byte
// format: whatever bytes are on disk, LoadEstimatorSlab either returns
// an estimator safe to predict with or an error — no panics, no
// out-of-range walks. Successful decodes are driven through the
// prediction surfaces because decode-time validation is exactly what
// makes the unchecked batch walk safe; a validation gap would surface
// here as a bounds panic.
func FuzzSlabDecode(f *testing.F) {
	for _, b := range fuzzSlabVariants() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("RESL"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, quant := range []bool{false, true} {
			est, _, err := LoadEstimatorSlab(data, quant)
			if err != nil {
				continue
			}
			var zero, filled features.Vector
			for i := range filled {
				filled[i] = float64(i%7) * 3.25
			}
			var kinds []plan.OpKind
			var vecs []features.Vector
			for kind := range est.Ops {
				est.PredictVector(kind, &zero)
				est.PredictVector(kind, &filled)
				kinds = append(kinds, kind, kind)
				vecs = append(vecs, zero, filled)
			}
			est.PredictBatch(kinds, vecs, nil)
		}
	})
}

// TestUpdateSlabFuzzCorpus rewrites the committed corpus seeds under
// testdata/fuzz/FuzzSlabDecode when run with -update (the same switch
// as the goldens), keeping them in sync with the encoder. It leaves
// alone the seed format2, the valid slab a format-2 build wrote (binary
// META, beside a float32-quantized QMARTS section), which stands for
// the files earlier builds left in stores.
func TestUpdateSlabFuzzCorpus(t *testing.T) {
	if !*updateGolden {
		t.Skip("corpus regeneration runs only with -update")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSlabDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range fuzzSlabVariants() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote corpus seed %s (%d bytes)", name, len(b))
	}
}
