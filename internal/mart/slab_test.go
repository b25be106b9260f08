package mart

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/xrand"
)

func trainedCompiled(t *testing.T, n int, seed uint64) (*Compiled, [][]float64) {
	t.Helper()
	xs, ys := synth(n, seed, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Compile(m), xs
}

func slabProbes(xs [][]float64, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	probes := append([][]float64{}, xs...)
	for i := 0; i < 400; i++ {
		probes = append(probes, []float64{
			rng.Range(-500, 500), rng.Range(-50, 50), rng.Range(-2, 2),
		})
	}
	probes = append(probes,
		[]float64{0, 0, 0},
		[]float64{1e18, -1e18, math.SmallestNonzeroFloat64},
		[]float64{math.NaN(), 1, 2},
	)
	return probes
}

// TestSlabRoundTripBitIdentical proves the slab codec is lossless: a
// Compiled rebuilt from its slab bytes — via both the zero-copy alias
// and the forced copying decode — predicts bit-identically to the
// original, single-row and batch, on in-range and adversarial probes.
func TestSlabRoundTripBitIdentical(t *testing.T) {
	c, xs := trainedCompiled(t, 1500, 7)
	blob := c.AppendSlab(nil)
	if len(blob) != c.SlabSize() {
		t.Fatalf("encoded %d bytes, SlabSize says %d", len(blob), c.SlabSize())
	}
	probes := slabProbes(xs, 99)
	flat, stride := flatRows(probes)

	for _, forceCopy := range []bool{false, true} {
		slabForceCopy = forceCopy
		dec, err := CompiledFromSlab(blob)
		slabForceCopy = false
		if err != nil {
			t.Fatalf("forceCopy=%v: %v", forceCopy, err)
		}
		if dec.NumTrees() != c.NumTrees() {
			t.Fatalf("forceCopy=%v: %d trees, want %d", forceCopy, dec.NumTrees(), c.NumTrees())
		}
		batch := make([]float64, len(probes))
		dec.PredictRows(flat, stride, batch, new(Scratch))
		for i, x := range probes {
			want := c.Predict(x)
			if got := dec.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: slab Predict %v != %v", forceCopy, i, got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: slab PredictRows %v != %v", forceCopy, i, batch[i], want)
			}
		}
	}
}

// TestSlabRoundTripEncodeStable pins that re-encoding a slab-decoded
// model reproduces the original bytes (the store republishes restored
// models; byte drift would churn every snapshot).
func TestSlabRoundTripEncodeStable(t *testing.T) {
	c, _ := trainedCompiled(t, 600, 11)
	blob := c.AppendSlab(nil)
	dec, err := CompiledFromSlab(blob)
	if err != nil {
		t.Fatal(err)
	}
	again := dec.AppendSlab(nil)
	if string(again) != string(blob) {
		t.Fatal("re-encoded slab differs from original bytes")
	}
}

// TestSlabRejectsCorruption checks the validation surface: every
// mutation that breaks a structural invariant must fail decode with
// ErrSlab, never panic — scoring indexes by what these checks admit.
func TestSlabRejectsCorruption(t *testing.T) {
	c, _ := trainedCompiled(t, 600, 13)
	blob := c.AppendSlab(nil)
	le := binary.LittleEndian
	featOffAt := slabHeaderSize
	leafOffAt := featOffAt + 4*len(c.featOff)
	nodesAt, _, _ := slabOffsets(c.InputsNeeded(), c.NumTrees(), len(c.nodes), len(c.leaf), 8)
	// A record with a predecessor in its feature's run, so "descending"
	// is a statement about two keys of one feature.
	second := -1
	for f := 0; f < c.InputsNeeded() && second < 0; f++ {
		if c.featOff[f+1]-c.featOff[f] >= 2 {
			second = int(c.featOff[f]) + 1
		}
	}
	if second < 0 {
		t.Fatal("no feature with two records")
	}

	mutate := func(name string, fn func(b []byte) []byte) {
		t.Helper()
		b := fn(append([]byte(nil), blob...))
		for _, forceCopy := range []bool{false, true} {
			slabForceCopy = forceCopy
			_, err := CompiledFromSlab(b)
			slabForceCopy = false
			if !errors.Is(err, ErrSlab) {
				t.Fatalf("%s (forceCopy=%v): decode of corrupt slab returned %v", name, forceCopy, err)
			}
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("quantized magic", func(b []byte) []byte { le.PutUint32(b, slabQMagic); return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-8] })
	mutate("extended", func(b []byte) []byte { return append(b, 0) })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("header only", func(b []byte) []byte { return b[:slabHeaderSize] })
	mutate("tree count lies", func(b []byte) []byte { b[4]++; return b })
	mutate("feature count lies", func(b []byte) []byte { b[8]++; return b })
	mutate("node count lies", func(b []byte) []byte { b[12]++; return b })
	mutate("leaf count lies", func(b []byte) []byte { b[16]++; return b })
	mutate("non-finite rate", func(b []byte) []byte {
		le.PutUint64(b[32:], math.Float64bits(math.NaN()))
		return b
	})
	mutate("feature offsets past the array", func(b []byte) []byte {
		le.PutUint32(b[featOffAt+4:], uint32(len(c.nodes))+1)
		return b
	})
	mutate("feature offsets do not start at 0", func(b []byte) []byte {
		le.PutUint32(b[featOffAt:], 1)
		return b
	})
	mutate("leaf offsets past the array", func(b []byte) []byte {
		le.PutUint32(b[leafOffAt+4*c.NumTrees():], uint32(len(c.leaf))+1)
		return b
	})
	mutate("tree with no leaves", func(b []byte) []byte {
		le.PutUint32(b[leafOffAt+4:], 0)
		return b
	})
	mutate("tree with 33 leaves", func(b []byte) []byte {
		le.PutUint32(b[leafOffAt+4:], 33)
		return b
	})
	mutate("tree id out of range", func(b []byte) []byte {
		le.PutUint32(b[nodesAt+8:], uint32(c.NumTrees()))
		return b
	})
	mutate("mask without its last leaf", func(b []byte) []byte {
		n := c.nodes[0]
		last := uint32(1) << (c.leafOff[n.tree+1] - c.leafOff[n.tree] - 1)
		le.PutUint32(b[nodesAt+12:], n.mask&^last)
		return b
	})
	mutate("mask beyond its last leaf", func(b []byte) []byte {
		le.PutUint32(b[nodesAt+12:], ^uint32(0))
		return b
	})
	mutate("descending keys", func(b []byte) []byte {
		le.PutUint64(b[nodesAt+16*second:], c.nodes[second-1].key-1)
		return b
	})
}

// TestQuantizeCloseness bounds the quantized walk against the exact
// walk. Training stores float32-exact thresholds and leaf values, so
// on probe vectors the two layouts agree to within routing resolution
// — a tight relative tolerance, not bit equality.
func TestQuantizeCloseness(t *testing.T) {
	c, xs := trainedCompiled(t, 1500, 17)
	q := c.Quantize()
	if q.NumTrees() != c.NumTrees() {
		t.Fatalf("quantized %d trees, want %d", q.NumTrees(), c.NumTrees())
	}
	probes := slabProbes(xs, 41)
	batch := make([]float64, len(probes))
	flat, stride := flatRows(probes)
	q.PredictRows(flat, stride, batch, new(Scratch))
	for i, x := range probes {
		exact := c.Predict(x)
		got := q.Predict(x)
		if math.Float64bits(batch[i]) != math.Float64bits(got) {
			t.Fatalf("probe %d: quantized batch %v != single %v", i, batch[i], got)
		}
		diff := math.Abs(got - exact)
		tol := 1e-4 * math.Max(1, math.Abs(exact))
		if !(diff <= tol) {
			t.Fatalf("probe %d: quantized %v vs exact %v (diff %v)", i, got, exact, diff)
		}
	}
}

// TestQuantizedSlabRoundTrip proves the quantized slab codec is
// lossless relative to the in-memory CompiledQ, via both decode paths.
func TestQuantizedSlabRoundTrip(t *testing.T) {
	c, xs := trainedCompiled(t, 900, 23)
	q := c.Quantize()
	blob := q.AppendSlab(nil)
	if len(blob) != q.SlabSize() {
		t.Fatalf("encoded %d bytes, SlabSize says %d", len(blob), q.SlabSize())
	}
	probes := slabProbes(xs, 57)
	flat, stride := flatRows(probes)
	for _, forceCopy := range []bool{false, true} {
		slabForceCopy = forceCopy
		dec, err := CompiledQFromSlab(blob)
		slabForceCopy = false
		if err != nil {
			t.Fatalf("forceCopy=%v: %v", forceCopy, err)
		}
		batch := make([]float64, len(probes))
		dec.PredictRows(flat, stride, batch, new(Scratch))
		for i, x := range probes {
			want := q.Predict(x)
			if got := dec.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: %v != %v", forceCopy, i, got, want)
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("forceCopy=%v probe %d: batch %v != %v", forceCopy, i, batch[i], want)
			}
		}
	}
	if _, err := CompiledQFromSlab(blob[:len(blob)-4]); err == nil {
		t.Fatal("truncated quantized slab accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := CompiledQFromSlab(bad); err == nil {
		t.Fatal("bad quantized magic accepted")
	}
}

// TestQuantizedMarginsMatchPredict pins the explain surface: the final
// margin equals Predict bit for bit, and the margin count equals the
// tree count, mirroring the exact-mode contract.
func TestQuantizedMarginsMatchPredict(t *testing.T) {
	c, xs := trainedCompiled(t, 600, 29)
	q := c.Quantize()
	for _, x := range xs[:64] {
		margins, y := q.PredictMargins(x, nil)
		if len(margins) != q.NumTrees() {
			t.Fatalf("%d margins, want %d", len(margins), q.NumTrees())
		}
		if math.Float64bits(y) != math.Float64bits(q.Predict(x)) {
			t.Fatalf("margin final %v != Predict %v", y, q.Predict(x))
		}
		if len(margins) > 0 && math.Float64bits(margins[len(margins)-1]) != math.Float64bits(y) {
			t.Fatalf("last margin %v != final %v", margins[len(margins)-1], y)
		}
	}
}

// TestFloatKey32Ordering checks the float32 sign-fold preserves
// ordering and maps NaN above every threshold key, mirroring the
// float64 key's routing contract.
func TestFloatKey32Ordering(t *testing.T) {
	vals := []float32{
		float32(math.Inf(-1)), -1e30, -2.5, -1, -math.SmallestNonzeroFloat32,
		0, math.SmallestNonzeroFloat32, 0.5, 1, 3.75, 1e30, float32(math.Inf(1)),
	}
	for i := 0; i < len(vals)-1; i++ {
		if !(floatKey32(vals[i]) < floatKey32(vals[i+1])) {
			t.Fatalf("key ordering broken at %v < %v", vals[i], vals[i+1])
		}
	}
	nan := floatKey32(float32(math.NaN()))
	for _, v := range vals {
		if nan <= floatKey32(v) {
			t.Fatalf("NaN key %#x not above %v", nan, v)
		}
	}
	for _, f := range []float64{-17.25, 0, 1e-12, 3.5, 12345.678, -1e100, 1e100} {
		if got := keyToFloat(floatKey(f)); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("keyToFloat(floatKey(%v)) = %v", f, got)
		}
	}
}
