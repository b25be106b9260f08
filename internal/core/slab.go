package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/mart"
)

// Estimator slab: the whole estimator — every candidate model's
// compiled layout plus the metadata around it — serialized as one
// relocatable binary file the store mmaps at restore. The mart slabs in
// the file are byte-identical to their in-memory arrays (see
// internal/mart/slab.go), so LoadEstimatorSlab reconstructs Compiled
// views directly over the mapped pages: no blob decode, no recompile,
// pages shared across co-resident processes. Only the metadata is
// decoded, and it is Save's JSON envelope, read by the code
// LoadEstimator runs.
//
// File layout (little-endian):
//
//	header (24 bytes)
//	  off  0  u32  magic "RESL"
//	  off  4  u16  format version (3; 1 held the root-to-leaf node slabs
//	               "MCS1"/"MCQ1", 2 a binary META section; both now
//	               decline into the JSON fallback, as a version-3 file
//	               does under an earlier binary)
//	  off  6  u16  flags (0, ignored; format-2 builds set bit 0 beside a
//	               float32-quantized QMARTS section)
//	  off  8  u32  section count
//	  off 12  u32  reserved (0)
//	  off 16  u64  total file length
//	section table (24 bytes per section)
//	  u32 kind · u32 CRC-32C of the section bytes · u64 offset · u64 length
//	sections, each 8-byte aligned, zero padding between
//	  META    Save's JSON envelope, each candidate's "mart" blob replaced
//	          by "slab": [martOff, martLen, blobOff, blobLen] into the
//	          next two sections
//	  MARTS   exact mart slabs ("MCS2"), back to back, 8-byte aligned
//	  BLOBS   compact §7.3 binary encodings, so Save on a slab-restored
//	          estimator re-emits byte-identical model files
//
// Integrity is layered: the store manifest carries a SHA-256 of the
// whole file (audit trail; torn writes are already caught by the header
// length), each section carries a CRC-32C verified when the section is
// read (sections the restore never touches are not checksummed — or
// even faulted in), and the mart slab decoders and validateCandidate
// re-check every structural invariant scoring indexes by — so even
// bytes that fake all checksums cannot make a prediction read out of
// bounds.
const (
	estSlabMagic      = 0x4C534552 // "RESL"
	estSlabFormat     = 3
	estSlabHeaderSize = 24
	estSlabSectSize   = 24

	// Section kinds. Kind 3 held format 2's float32-quantized mart
	// slabs; a section of a kind not listed here is skipped unread.
	sectMeta  = 1
	sectMarts = 2
	sectBlobs = 4
)

// ErrSlab wraps every estimator-slab decode failure; the store treats
// it (like mart.ErrSlab, which it also wraps) as "fall back to JSON".
var ErrSlab = errors.New("core: bad estimator slab")

var slabCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSlab serializes the estimator into the slab format.
// Deterministic: equal estimators encode to equal bytes.
func (e *Estimator) EncodeSlab() ([]byte, error) {
	var marts, blobs []byte
	env, err := e.envelope(func(c *CombinedModel, cj *combinedJSON) {
		marts = pad8(marts)
		cj.Slab = []uint64{uint64(len(marts)), uint64(c.compiled.SlabSize()), uint64(len(blobs)), uint64(len(c.blob))}
		marts = c.compiled.AppendSlab(marts)
		blobs = append(blobs, c.blob...)
	})
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("core: slab encode: %w", err)
	}

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
// keeps the mapping for the life of the process).
//
// wantQuantized is ignored and usedQuantized is always false: both stay
// only because the benchmark calls this signature, and go with
// ROADMAP 1(g).
//
// The decoder never panics on arbitrary bytes: section offsets, CRCs
// and every cross-section reference are validated, META gets the checks
// a JSON model file gets, and the mart slab decoders re-check the
// scoring invariants underneath.
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
	// CRCs are verified only for the sections this restore reads, so a
	// section it never dereferences is never faulted in. Any section a
	// candidate later references has been verified by the time its
	// bytes are aliased.
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

	var in estimatorJSON
	if err := json.Unmarshal(meta, &in); err != nil {
		return nil, false, fmt.Errorf("%w: META: %v", ErrSlab, err)
	}
	est, err = in.estimator(func(cj *combinedJSON) (*mart.Compiled, []byte, error) {
		if len(cj.Slab) != 4 {
			return nil, nil, fmt.Errorf("%d section references, want 4", len(cj.Slab))
		}
		mb, err := sectSlice(marts, cj.Slab[0], cj.Slab[1])
		if err != nil {
			return nil, nil, fmt.Errorf("MARTS ref: %v", err)
		}
		compiled, err := mart.CompiledFromSlab(mb)
		if err != nil {
			return nil, nil, err
		}
		blob, err := sectSlice(blobs, cj.Slab[2], cj.Slab[3])
		if err != nil {
			return nil, nil, fmt.Errorf("BLOBS ref: %v", err)
		}
		return compiled, blob, nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrSlab, err)
	}
	return est, false, nil
}

// sectSlice bounds-checks a [off, off+n) reference into a section.
func sectSlice(b []byte, off, n uint64) ([]byte, error) {
	if off > uint64(len(b)) || n > uint64(len(b))-off {
		return nil, fmt.Errorf("range [%d,+%d) outside %d-byte section", off, n, len(b))
	}
	return b[off : off+n : off+n], nil
}
