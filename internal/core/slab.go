package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// Estimator slab: the whole estimator — every candidate model's
// compiled layout plus the metadata around it — serialized as one
// relocatable binary file the store mmaps at restore. The mart slabs in
// the file are byte-identical to their in-memory arrays (see
// internal/mart/slab.go), so LoadEstimatorSlab reconstructs Compiled
// views directly over the mapped pages: no JSON decode, no recompile,
// nothing built, pages shared across co-resident processes.
//
// File layout (little-endian):
//
//	header (24 bytes)
//	  off  0  u32  magic "RESL"
//	  off  4  u16  format version (2; 1 held the root-to-leaf node slabs
//	               "MCS1"/"MCQ1" and now declines into the JSON fallback,
//	               as a version-2 file does under a version-1 binary)
//	  off  6  u16  flags (0; earlier builds set bit 0 beside a QMARTS
//	               section, and the decoder ignores both)
//	  off  8  u32  section count
//	  off 12  u32  reserved (0)
//	  off 16  u64  total file length
//	section table (24 bytes per section)
//	  u32 kind · u32 CRC-32C of the section bytes · u64 offset · u64 length
//	sections, each 8-byte aligned, zero padding between
//	  META    candidate metadata + per-candidate offsets into the others
//	  MARTS   exact mart slabs ("MCS2"), back to back, 8-byte aligned
//	  BLOBS   compact §7.3 binary encodings, so Save on a slab-restored
//	          estimator re-emits byte-identical model files
//
// Integrity is layered: the store manifest carries a SHA-256 of the
// whole file (audit trail; torn writes are already caught by the header
// length), each section carries a CRC-32C verified when the section is
// read (sections the restore mode never touches are not checksummed —
// or even faulted in), and the mart slab decoders re-validate every
// structural invariant scoring indexes by — so even bytes that fake all
// checksums cannot make a prediction read out of bounds.
const (
	estSlabMagic      = 0x4C534552 // "RESL"
	estSlabFormat     = 2
	estSlabHeaderSize = 24
	estSlabSectSize   = 24

	// Section kinds. Kind 3 held the float32-quantized mart slabs that
	// earlier builds wrote; the decoder skips it unread.
	sectMeta  = 1
	sectMarts = 2
	sectBlobs = 4

	// Decode caps: far above anything trained, low enough that a
	// corrupt count cannot drive a huge allocation before it fails.
	maxSlabOps       = 256
	maxSlabCands     = 1024
	maxSlabScales    = 8
	maxSlabInputs    = int(features.NumFeatures)
	maxSlabScaleFeat = int(features.NumFeatures)
)

// ErrSlab wraps every estimator-slab decode failure; the store treats
// it (like mart.ErrSlab, which it also wraps) as "fall back to JSON".
var ErrSlab = errors.New("core: bad estimator slab")

var slabCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSlab serializes the estimator into the slab format.
// Deterministic: equal estimators encode to equal bytes.
func (e *Estimator) EncodeSlab() ([]byte, error) {
	var meta, marts, blobs []byte

	var w metaWriter
	w.u32(uint32(e.Resource))
	w.u32(uint32(e.Mode))
	w.f64(e.fallbackMean)
	if b := e.Baseline; b != nil {
		w.u8(1)
		w.u64(uint64(b.N))
		w.f64(b.Mean)
		w.f64(b.P50)
		w.f64(b.P90)
	} else {
		w.u8(0)
	}

	var ops []plan.OpKind
	var opBlobs [][][]byte // opBlobs[o][i]: candidate i of ops[o]
	for _, kind := range plan.Kinds() {
		om, ok := e.Ops[kind]
		if !ok {
			continue
		}
		cb := make([][]byte, len(om.Candidates))
		for i, c := range om.Candidates {
			blob := c.martBlob
			if c.Mart != nil {
				var err error
				if blob, err = c.Mart.EncodeBinary(); err != nil {
					return nil, fmt.Errorf("core: slab encode %s: %w", kind, err)
				}
			}
			if blob == nil {
				return nil, fmt.Errorf("core: slab encode %s: candidate %d has no binary blob", kind, i)
			}
			cb[i] = blob
		}
		ops = append(ops, kind)
		opBlobs = append(opBlobs, cb)
	}

	w.u32(uint32(len(ops)))
	for oi, kind := range ops {
		om := e.Ops[kind]
		defaultIdx := -1
		for i, c := range om.Candidates {
			if c == om.Default {
				defaultIdx = i
			}
		}
		if defaultIdx < 0 {
			return nil, fmt.Errorf("core: slab encode %s: default model not among candidates", kind)
		}
		w.u32(uint32(kind))
		w.u64(uint64(om.NSamples))
		w.u32(uint32(defaultIdx))
		w.u32(uint32(len(om.Candidates)))
		for i, c := range om.Candidates {
			w.u32(uint32(len(c.Scales)))
			for _, s := range c.Scales {
				w.u32(uint32(s.Kind))
				w.u32(uint32(s.F1))
				w.u32(uint32(s.F2))
			}
			w.u32(uint32(len(c.Inputs)))
			for j, id := range c.Inputs {
				w.u32(uint32(id))
				w.u32(uint32(c.normalizeBy[j]))
				w.f64(c.Low[j])
				w.f64(c.High[j])
			}
			sf := sortedScaleFeatures(c)
			w.u32(uint32(len(sf)))
			for _, f := range sf {
				w.u32(uint32(f))
				w.f64(c.ScaleLow[f])
				w.f64(c.ScaleHigh[f])
			}
			w.f64(c.YLow)
			w.f64(c.YHigh)
			w.f64(c.TrainErr)
			if c.noNorm {
				w.u8(1)
			} else {
				w.u8(0)
			}
			blob := opBlobs[oi][i]
			marts = pad8(marts)
			w.u64(uint64(len(marts)))
			w.u64(uint64(c.compiled.SlabSize()))
			marts = c.compiled.AppendSlab(marts)
			// Where earlier builds referenced a quantized slab: zero,
			// as they wrote it when their accuracy gate refused one,
			// so their decoders load this file.
			w.u64(0)
			w.u64(0)
			w.u64(uint64(len(blobs)))
			w.u64(uint64(len(blob)))
			blobs = append(blobs, blob...)
		}
	}
	meta = w.b

	sections := []struct {
		kind uint32
		data []byte
	}{{sectMeta, meta}, {sectMarts, marts}, {sectBlobs, blobs}}

	out := make([]byte, estSlabHeaderSize+estSlabSectSize*len(sections))
	binary.LittleEndian.PutUint32(out[0:], estSlabMagic)
	binary.LittleEndian.PutUint16(out[4:], estSlabFormat)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(sections)))
	for i, s := range sections {
		out = pad8(out)
		off := len(out)
		out = append(out, s.data...)
		ent := estSlabHeaderSize + estSlabSectSize*i
		binary.LittleEndian.PutUint32(out[ent:], s.kind)
		binary.LittleEndian.PutUint32(out[ent+4:], crc32.Checksum(s.data, slabCRC))
		binary.LittleEndian.PutUint64(out[ent+8:], uint64(off))
		binary.LittleEndian.PutUint64(out[ent+16:], uint64(len(s.data)))
	}
	binary.LittleEndian.PutUint64(out[16:], uint64(len(out)))
	return out, nil
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// LoadEstimatorSlab reconstructs an estimator over slab bytes. On a
// little-endian host the compiled arrays and binary blobs alias
// data directly — zero copy, so data must stay alive and unmodified for
// the estimator's lifetime (the store mmaps the file read-only and
// keeps the mapping for the life of the process). A QMARTS section and
// flag bit 0, which earlier builds wrote, are skipped unread.
//
// wantQuantized is ignored and usedQuantized is always false: both stay
// only because the benchmark calls this signature, and go with
// ROADMAP 1(g).
//
// The decoder never panics on arbitrary bytes: section offsets, CRCs,
// every count and every cross-section reference are validated, and the
// mart slab decoders re-check the scoring invariants underneath.
func LoadEstimatorSlab(data []byte, wantQuantized bool) (est *Estimator, usedQuantized bool, err error) {
	if len(data) < estSlabHeaderSize {
		return nil, false, fmt.Errorf("%w: %d bytes", ErrSlab, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != estSlabMagic {
		return nil, false, fmt.Errorf("%w: magic %#x", ErrSlab, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != estSlabFormat {
		return nil, false, fmt.Errorf("%w: format version %d, want %d", ErrSlab, v, estSlabFormat)
	}
	nSect := int(binary.LittleEndian.Uint32(data[8:]))
	if nSect < 1 || nSect > 16 {
		return nil, false, fmt.Errorf("%w: %d sections", ErrSlab, nSect)
	}
	if total := binary.LittleEndian.Uint64(data[16:]); total != uint64(len(data)) {
		return nil, false, fmt.Errorf("%w: header says %d bytes, file has %d", ErrSlab, total, len(data))
	}
	if estSlabHeaderSize+estSlabSectSize*nSect > len(data) {
		return nil, false, fmt.Errorf("%w: section table overruns file", ErrSlab)
	}
	type sectEntry struct {
		b   []byte
		crc uint32
	}
	sects := map[uint32]sectEntry{}
	for i := 0; i < nSect; i++ {
		ent := estSlabHeaderSize + estSlabSectSize*i
		kind := binary.LittleEndian.Uint32(data[ent:])
		crc := binary.LittleEndian.Uint32(data[ent+4:])
		off := binary.LittleEndian.Uint64(data[ent+8:])
		n := binary.LittleEndian.Uint64(data[ent+16:])
		if off%8 != 0 || off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, false, fmt.Errorf("%w: section %d range [%d,+%d) out of file", ErrSlab, kind, off, n)
		}
		sects[kind] = sectEntry{b: data[off : off+n], crc: crc}
	}
	// CRCs are verified only for the sections this restore reads —
	// checksumming (and thereby page-faulting) the QMARTS section of an
	// older file would cost real milliseconds and memory for bytes that
	// are never dereferenced. Any section a candidate later references
	// has been verified by the time its bytes are aliased.
	use := func(kind uint32, name string) ([]byte, error) {
		s, ok := sects[kind]
		if !ok {
			return nil, fmt.Errorf("%w: no %s section", ErrSlab, name)
		}
		if got := crc32.Checksum(s.b, slabCRC); got != s.crc {
			return nil, fmt.Errorf("%w: %s CRC %#x, want %#x", ErrSlab, name, got, s.crc)
		}
		return s.b, nil
	}
	meta, err := use(sectMeta, "META")
	if err != nil {
		return nil, false, err
	}
	marts, err := use(sectMarts, "MARTS")
	if err != nil {
		return nil, false, err
	}
	blobs, err := use(sectBlobs, "BLOBS")
	if err != nil {
		return nil, false, err
	}

	r := &metaReader{b: meta}
	e := &Estimator{
		Resource: plan.ResourceKind(r.u32()),
		Mode:     features.Mode(r.u32()),
		Ops:      map[plan.OpKind]*OperatorModels{},
	}
	e.fallbackMean = r.f64()
	if r.u8() == 1 {
		e.Baseline = &ErrorBaseline{N: int(r.u64())}
		e.Baseline.Mean = r.f64()
		e.Baseline.P50 = r.f64()
		e.Baseline.P90 = r.f64()
	}
	nOps := r.count(maxSlabOps)
	if r.err != nil {
		return nil, false, fmt.Errorf("%w: bad op count", ErrSlab)
	}
	for oi := 0; oi < nOps; oi++ {
		kind := plan.OpKind(r.u32())
		om := &OperatorModels{Op: kind, Resource: e.Resource, NSamples: int(r.u64())}
		defaultIdx := int(r.u32())
		nCand := r.count(maxSlabCands)
		if r.err != nil || nCand < 1 {
			return nil, false, fmt.Errorf("%w: op %d bad candidate count", ErrSlab, kind)
		}
		for ci := 0; ci < nCand; ci++ {
			c := &CombinedModel{
				Op:        kind,
				Resource:  e.Resource,
				ScaleLow:  map[features.ID]float64{},
				ScaleHigh: map[features.ID]float64{},
			}
			nScales := r.count(maxSlabScales)
			if r.err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d bad scale count", ErrSlab, kind, ci)
			}
			for i := 0; i < nScales; i++ {
				c.Scales = append(c.Scales, ScaleFn{
					Kind: ScaleKind(r.u32()),
					F1:   features.ID(r.u32()),
					F2:   features.ID(r.u32()),
				})
			}
			nInputs := r.count(maxSlabInputs)
			if r.err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d bad input count", ErrSlab, kind, ci)
			}
			c.Inputs = make([]features.ID, nInputs)
			c.normalizeBy = make([]features.ID, nInputs)
			c.Low = make([]float64, nInputs)
			c.High = make([]float64, nInputs)
			for i := 0; i < nInputs; i++ {
				c.Inputs[i] = features.ID(r.u32())
				c.normalizeBy[i] = features.ID(int32(r.u32()))
				c.Low[i] = r.f64()
				c.High[i] = r.f64()
			}
			nSF := r.count(maxSlabScaleFeat)
			if r.err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d bad scale-feature count", ErrSlab, kind, ci)
			}
			for i := 0; i < nSF; i++ {
				f := features.ID(r.u32())
				c.ScaleLow[f] = r.f64()
				c.ScaleHigh[f] = r.f64()
			}
			c.YLow = r.f64()
			c.YHigh = r.f64()
			c.TrainErr = r.f64()
			c.noNorm = r.u8() == 1
			martOff, martLen := r.u64(), r.u64()
			r.u64() // the quantized slab's offset and length
			r.u64()
			blobOff, blobLen := r.u64(), r.u64()
			if r.err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d truncated metadata", ErrSlab, kind, ci)
			}
			mb, err := sectSlice(marts, martOff, martLen)
			if err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d MARTS ref: %v", ErrSlab, kind, ci, err)
			}
			if c.compiled, err = mart.CompiledFromSlab(mb); err != nil {
				return nil, false, fmt.Errorf("core: bad estimator slab: op %d cand %d: %w", kind, ci, err)
			}
			if c.martBlob, err = sectSlice(blobs, blobOff, blobLen); err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d BLOBS ref: %v", ErrSlab, kind, ci, err)
			}
			if err := validateCandidate(c); err != nil {
				return nil, false, fmt.Errorf("%w: op %d cand %d: %v", ErrSlab, kind, ci, err)
			}
			c.scaleFeats = sortedScaleFeatures(c)
			om.Candidates = append(om.Candidates, c)
		}
		if defaultIdx < 0 || defaultIdx >= len(om.Candidates) {
			return nil, false, fmt.Errorf("%w: op %d default index %d", ErrSlab, kind, defaultIdx)
		}
		om.Default = om.Candidates[defaultIdx]
		e.Ops[kind] = om
	}
	if r.err != nil {
		return nil, false, fmt.Errorf("%w: truncated metadata", ErrSlab)
	}
	if r.off != len(r.b) {
		return nil, false, fmt.Errorf("%w: %d trailing metadata bytes", ErrSlab, len(r.b)-r.off)
	}
	return e, false, nil
}

// validateCandidate checks the invariants prediction relies on but
// decode alone cannot guarantee on adversarial input: every feature ID
// is a real features.ID (Vector.Get indexes a fixed-size array), and
// scoring never reads past the transformed row the metadata sizes.
// Both loaders, slab and JSON, run it on every candidate they decode. A
// candidate passing here can serve any vector without panicking,
// whatever the file contained.
func validateCandidate(c *CombinedModel) error {
	validID := func(id features.ID) bool { return id >= 0 && id < features.NumFeatures }
	for _, s := range c.Scales {
		if !validID(s.F1) || !validID(s.F2) {
			return fmt.Errorf("scale feature out of range")
		}
	}
	for i, id := range c.Inputs {
		if !validID(id) {
			return fmt.Errorf("input %d feature %d out of range", i, id)
		}
		if nb := c.normalizeBy[i]; nb != -1 && !validID(nb) {
			return fmt.Errorf("input %d normalize-by %d out of range", i, nb)
		}
	}
	for f := range c.ScaleLow {
		if !validID(f) {
			return fmt.Errorf("scale-range feature %d out of range", f)
		}
	}
	if need := c.compiled.InputsNeeded(); need > len(c.Inputs) {
		return fmt.Errorf("model reads %d inputs, metadata has %d", need, len(c.Inputs))
	}
	return nil
}

// sectSlice bounds-checks a [off, off+n) reference into a section.
func sectSlice(b []byte, off, n uint64) ([]byte, error) {
	if off > uint64(len(b)) || n > uint64(len(b))-off {
		return nil, fmt.Errorf("range [%d,+%d) outside %d-byte section", off, n, len(b))
	}
	return b[off : off+n : off+n], nil
}

// metaWriter/metaReader are the little-endian cursor codecs for the
// META section. The reader never panics: out-of-range reads set err
// and return zeros, and callers check err at each variable-length
// boundary before allocating.
type metaWriter struct{ b []byte }

func (w *metaWriter) u8(v byte) { w.b = append(w.b, v) }
func (w *metaWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}
func (w *metaWriter) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}
func (w *metaWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

type metaReader struct {
	b   []byte
	off int
	err error
}

func (r *metaReader) take(n int) []byte {
	if r.err != nil || len(r.b)-r.off < n {
		r.err = errors.New("short read")
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *metaReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *metaReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *metaReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *metaReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 count and fails the reader when it exceeds max. The
// cap is checked before the count becomes an int, so where int is 32
// bits a count with its top bit set cannot turn negative and reach make.
func (r *metaReader) count(max int) int {
	v := r.u32()
	if uint64(v) > uint64(max) {
		r.err = fmt.Errorf("count %d over its cap %d", v, max)
		return 0
	}
	return int(v)
}
