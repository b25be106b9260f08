package mart

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Slab encoding: a compiled layout serialized as a relocatable flat
// byte range whose four arrays are exactly their in-memory form on a
// little-endian host. That identity is the whole point — a loader can
// mmap the file read-only and alias the arrays directly over the mapped
// pages (CompiledFromSlab), so restore builds nothing: a header parse
// plus one validation pass, and co-resident processes share the pages.
//
// Layout (all fields little-endian, offsets relative to slab start,
// which callers must keep 8-byte aligned relative to the mapping base):
//
//	off  0  u32  magic "MCS2" (exact) / "MCQ2" (quantized)
//	off  4  u32  nTrees
//	off  8  u32  nFeat    features read = highest split feature + 1
//	off 12  u32  nNodes   inner nodes
//	off 16  u32  nLeaves
//	off 20  u32  reserved (0)
//	off 24  f64  base
//	off 32  f64  rate
//	off 40  u32 × (nFeat+1)   featOff: feature f's records are nodes[featOff[f]:featOff[f+1]]
//	        u32 × (nTrees+1)  leafOff: tree t's leaves are leaf[leafOff[t]:leafOff[t+1]]
//	        4 zero bytes when nFeat+nTrees is odd, so nodes start 8-byte aligned
//	        nodes   exact 16 B {u64 key, u32 tree, u32 mask} · quantized 12 B {u32 key, u32 tree, u32 mask}
//	        leaf    exact f64 · quantized f32
//
// A decoder rejects any length mismatch and every structural violation
// (validate), so scoring a decoded slab indexes inside its arrays
// whatever the bytes were.
const (
	slabMagic      = 0x3253434D // "MCS2"
	slabQMagic     = 0x3251434D // "MCQ2"
	slabHeaderSize = 40

	// Caps keep a corrupt header from driving huge allocations before
	// the length check; all are far above any trained ensemble.
	maxSlabTrees = 1 << 20
	maxSlabNodes = 1 << 28
	maxSlabFeat  = 1 << 16
)

var (
	// ErrSlab wraps every slab decode failure so callers can branch on
	// "this byte range is not a usable slab" without matching strings.
	ErrSlab = errors.New("mart: bad slab")

	// hostLittleEndian gates the zero-copy alias: on a big-endian host
	// the file layout and the in-memory layout differ, so decode copies.
	hostLittleEndian = func() bool {
		x := uint16(1)
		return *(*byte)(unsafe.Pointer(&x)) == 1
	}()

	// slabForceCopy forces the copying decode path (tests exercise it on
	// little-endian hosts where the alias path would otherwise win).
	slabForceCopy = false
)

// slabShape is what distinguishes the two encodings: the magic, and the
// byte width of a key and of a leaf (8 exact, 4 quantized).
func (e *ensemble[K, V]) slabShape() (magic uint32, width int) {
	if wide[K]() {
		return slabMagic, 8
	}
	return slabQMagic, 4
}

// slabOffsets returns where the node and leaf arrays start and the
// total size, for the given counts and key/leaf width.
func slabOffsets(nFeat, nTrees, nNodes, nLeaves, width int) (nodesOff, leafOff, size int) {
	nodesOff = (slabHeaderSize + 4*(nFeat+1+nTrees+1) + 7) &^ 7
	leafOff = nodesOff + (width+8)*nNodes
	return nodesOff, leafOff, leafOff + width*nLeaves
}

// SlabSize returns the exact encoded size of the compiled model.
func (e *ensemble[K, V]) SlabSize() int {
	_, width := e.slabShape()
	_, _, size := slabOffsets(e.InputsNeeded(), e.NumTrees(), len(e.nodes), len(e.leaf), width)
	return size
}

// AppendSlab appends the slab encoding of the model to dst and returns
// the extended slice. The encoding is byte-deterministic for a given
// model on every host (explicit little-endian stores, zeroed padding).
func (e *ensemble[K, V]) AppendSlab(dst []byte) []byte {
	magic, width := e.slabShape()
	nodesOff, leafOff, size := slabOffsets(e.InputsNeeded(), e.NumTrees(), len(e.nodes), len(e.leaf), width)
	off := len(dst)
	dst = append(dst, make([]byte, size)...)
	b := dst[off:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], magic)
	le.PutUint32(b[4:], uint32(e.NumTrees()))
	le.PutUint32(b[8:], uint32(e.InputsNeeded()))
	le.PutUint32(b[12:], uint32(len(e.nodes)))
	le.PutUint32(b[16:], uint32(len(e.leaf)))
	le.PutUint64(b[24:], math.Float64bits(e.base))
	le.PutUint64(b[32:], math.Float64bits(e.rate))
	p := slabHeaderSize
	for _, offs := range [][]uint32{e.featOff, e.leafOff} {
		for _, o := range offs {
			le.PutUint32(b[p:], o)
			p += 4
		}
	}
	p = nodesOff
	for _, n := range e.nodes {
		if width == 8 {
			le.PutUint64(b[p:], uint64(n.key))
		} else {
			le.PutUint32(b[p:], uint32(n.key))
		}
		le.PutUint32(b[p+width:], n.tree)
		le.PutUint32(b[p+width+4:], n.mask)
		p += width + 8
	}
	p = leafOff
	for _, v := range e.leaf {
		if width == 8 {
			le.PutUint64(b[p:], math.Float64bits(float64(v)))
		} else {
			le.PutUint32(b[p:], math.Float32bits(float32(v)))
		}
		p += width
	}
	return dst
}

// CompiledFromSlab reconstructs a Compiled view over the slab bytes.
// On a little-endian host with an 8-byte-aligned b all four arrays
// alias b directly — zero copy, so b must stay alive and unmodified for
// the lifetime of the returned Compiled (an mmap'd read-only file
// satisfies both). Otherwise the arrays are decoded onto the heap and b
// may be discarded.
func CompiledFromSlab(b []byte) (*Compiled, error) {
	c := &Compiled{}
	if err := c.fromSlab(b); err != nil {
		return nil, err
	}
	return c, nil
}

func (e *ensemble[K, V]) fromSlab(b []byte) error {
	magic, width := e.slabShape()
	if len(b) < slabHeaderSize {
		return fmt.Errorf("%w: %d bytes, want >= %d", ErrSlab, len(b), slabHeaderSize)
	}
	le := binary.LittleEndian
	if m := le.Uint32(b[0:]); m != magic {
		return fmt.Errorf("%w: magic %#x, want %#x", ErrSlab, m, magic)
	}
	nTrees, nFeat := int(le.Uint32(b[4:])), int(le.Uint32(b[8:]))
	nNodes, nLeaves := int(le.Uint32(b[12:])), int(le.Uint32(b[16:]))
	if nTrees > maxSlabTrees || nFeat > maxSlabFeat || nNodes > maxSlabNodes || nLeaves > maxLeaves*nTrees {
		return fmt.Errorf("%w: %d trees / %d features / %d nodes / %d leaves exceed caps", ErrSlab, nTrees, nFeat, nNodes, nLeaves)
	}
	nodesOff, leafOff, size := slabOffsets(nFeat, nTrees, nNodes, nLeaves, width)
	if len(b) != size {
		return fmt.Errorf("%w: %d bytes, want %d", ErrSlab, len(b), size)
	}
	e.base = math.Float64frombits(le.Uint64(b[24:]))
	e.rate = math.Float64frombits(le.Uint64(b[32:]))
	if math.IsNaN(e.base) || math.IsInf(e.base, 0) || math.IsNaN(e.rate) || math.IsInf(e.rate, 0) {
		return fmt.Errorf("%w: non-finite base/rate", ErrSlab)
	}
	ob, nb, lb := b[slabHeaderSize:], b[nodesOff:leafOff], b[leafOff:]
	if hostLittleEndian && !slabForceCopy && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		offs := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ob))), nFeat+1+nTrees+1)
		e.featOff, e.leafOff = offs[:nFeat+1:nFeat+1], offs[nFeat+1:]
		e.nodes = unsafe.Slice((*node[K])(unsafe.Pointer(unsafe.SliceData(nb))), nNodes)
		e.leaf = unsafe.Slice((*V)(unsafe.Pointer(unsafe.SliceData(lb))), nLeaves)
	} else {
		offs := make([]uint32, nFeat+1+nTrees+1)
		for i := range offs {
			offs[i] = le.Uint32(ob[4*i:])
		}
		e.featOff, e.leafOff = offs[:nFeat+1:nFeat+1], offs[nFeat+1:]
		e.nodes = make([]node[K], nNodes)
		for i := range e.nodes {
			r := nb[(width+8)*i:]
			if width == 8 {
				e.nodes[i].key = K(le.Uint64(r))
			} else {
				e.nodes[i].key = K(le.Uint32(r))
			}
			e.nodes[i].tree, e.nodes[i].mask = le.Uint32(r[width:]), le.Uint32(r[width+4:])
		}
		e.leaf = make([]V, nLeaves)
		for i := range e.leaf {
			if width == 8 {
				e.leaf[i] = V(math.Float64frombits(le.Uint64(lb[8*i:])))
			} else {
				e.leaf[i] = V(math.Float32frombits(le.Uint32(lb[4*i:])))
			}
		}
	}
	return e.validate()
}

// validate checks everything scoring indexes by, so no index can leave
// its array: both offset tables start at 0, end at their array's length
// and never step back; a tree has 1 to 32 leaves; every record names an
// existing tree, and its mask keeps that tree's last leaf and no bit
// beyond it — so the word a row ends with always selects one of the
// tree's own leaves; keys ascend within a feature's run, which is what
// lets the scan stop at the first key it does not exceed.
func (e *ensemble[K, V]) validate() error {
	if err := checkOffsets("feature", e.featOff, len(e.nodes), 0, len(e.nodes)); err != nil {
		return err
	}
	if err := checkOffsets("tree", e.leafOff, len(e.leaf), 1, maxLeaves); err != nil {
		return err
	}
	nTrees := uint32(e.NumTrees())
	for f := 0; f < e.InputsNeeded(); f++ {
		run := e.nodes[e.featOff[f]:e.featOff[f+1]]
		for i, n := range run {
			if n.tree >= nTrees {
				return fmt.Errorf("%w: feature %d record %d: tree %d of %d", ErrSlab, f, i, n.tree, nTrees)
			}
			last := uint32(1) << (e.leafOff[n.tree+1] - e.leafOff[n.tree] - 1)
			if n.mask&last == 0 || n.mask > last|(last-1) {
				return fmt.Errorf("%w: feature %d record %d: mask %#x for a %d-leaf tree", ErrSlab, f, i, n.mask, e.leafOff[n.tree+1]-e.leafOff[n.tree])
			}
			if i > 0 && n.key < run[i-1].key {
				return fmt.Errorf("%w: feature %d record %d: key below its predecessor's", ErrSlab, f, i)
			}
		}
	}
	return nil
}

// checkOffsets validates one offset table: off[0] = 0, off[last] = end,
// and every step within [minStep, maxStep].
func checkOffsets(what string, off []uint32, end, minStep, maxStep int) error {
	if off[0] != 0 || int(off[len(off)-1]) != end {
		return fmt.Errorf("%w: %s offsets span [%d,%d], want [0,%d]", ErrSlab, what, off[0], off[len(off)-1], end)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] || int(off[i]-off[i-1]) < minStep || int(off[i]-off[i-1]) > maxStep {
			return fmt.Errorf("%w: %s %d spans [%d,%d)", ErrSlab, what, i-1, off[i-1], off[i])
		}
	}
	return nil
}
