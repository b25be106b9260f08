package core

import (
	"bytes"
	"testing"
)

// BenchmarkLoadEstimatorSlab and BenchmarkLoadEstimator time the two
// restores of one trained TPC-H CPU estimator: over its slab bytes
// (metadata decoded, ensembles aliased) and from its Save file
// (metadata and every §7.3 blob decoded, every ensemble compiled).
func BenchmarkLoadEstimatorSlab(b *testing.B) {
	est, _ := slabSetup(b)
	data, err := est.EncodeSlab()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := LoadEstimatorSlab(data, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.NumModels()), "candidates")
}

func BenchmarkLoadEstimator(b *testing.B) {
	est, _ := slabSetup(b)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadEstimator(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.NumModels()), "candidates")
}
