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
	nodesAt64, _, _ := slabOffsets(uint64(c.InputsNeeded()), uint64(c.NumTrees()), uint64(len(c.nodes)), uint64(len(c.leaf)))
	nodesAt := int(nodesAt64)
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
	// "MCQ2", the float32 layout earlier builds wrote beside this one.
	mutate("quantized magic", func(b []byte) []byte { le.PutUint32(b, 0x3251434D); return b })
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

// TestSlabNodeCountCannotWrapSize pins the length check against
// header counts whose byte size overflows a 32-bit int: 16 B times 2^28
// nodes is 2^32, which wraps to 0 and would let this 64-byte slab
// (one feature, one tree, one leaf) pass as complete; 2^27 nodes wrap
// to a negative size. Both must fail decode, never panic, on every
// GOARCH — run with GOARCH=386 to exercise the wrap.
func TestSlabNodeCountCannotWrapSize(t *testing.T) {
	le := binary.LittleEndian
	for _, nNodes := range []uint32{1 << 27, 1 << 28} {
		b := make([]byte, 64)
		le.PutUint32(b[0:], slabMagic)
		le.PutUint32(b[4:], 1) // trees
		le.PutUint32(b[8:], 1) // features
		le.PutUint32(b[12:], nNodes)
		le.PutUint32(b[16:], 1) // leaves
		for _, forceCopy := range []bool{false, true} {
			slabForceCopy = forceCopy
			_, err := CompiledFromSlab(b)
			slabForceCopy = false
			if !errors.Is(err, ErrSlab) {
				t.Fatalf("%d nodes in 64 bytes (forceCopy=%v): decode returned %v, want ErrSlab", nNodes, forceCopy, err)
			}
		}
	}
}
