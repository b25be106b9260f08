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
// read the file and alias the arrays directly over its bytes
// (CompiledFromSlab), so restore builds nothing: a header parse plus
// one validation pass.
//
// Layout (all fields little-endian, offsets relative to slab start,
// which callers must keep 8-byte aligned relative to the buffer's base):
//
//	off  0  u32  magic "MCS2"
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
//	        nodes   16 B {u64 key, u32 tree, u32 mask} each
//	        leaf    f64 each
//
// A decoder rejects any length mismatch and every structural violation
// (validate), so scoring a decoded slab indexes inside its arrays
// whatever the bytes were.
const (
	slabMagic      = 0x3253434D // "MCS2"
	slabHeaderSize = 40
	slabNodeSize   = 16

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

// slabOffsets returns where the node and leaf arrays start and the
// total size for the given counts. It counts in uint64, so no header
// count can wrap the size on a 32-bit host: there, 16 bytes times 2^28
// nodes is 0 in an int, and a short slab would pass the length check
// and hand unsafe.Slice a length beyond its bytes.
func slabOffsets(nFeat, nTrees, nNodes, nLeaves uint64) (nodesOff, leafOff, size uint64) {
	nodesOff = (slabHeaderSize + 4*(nFeat+1+nTrees+1) + 7) &^ 7
	leafOff = nodesOff + slabNodeSize*nNodes
	return nodesOff, leafOff, leafOff + 8*nLeaves
}

// SlabSize returns the exact encoded size of the compiled model.
func (c *Compiled) SlabSize() int {
	_, _, size := slabOffsets(uint64(c.InputsNeeded()), uint64(c.NumTrees()), uint64(len(c.nodes)), uint64(len(c.leaf)))
	return int(size)
}

// AppendSlab appends the slab encoding of the model to dst and returns
// the extended slice. The encoding is byte-deterministic for a given
// model on every host (explicit little-endian stores, zeroed padding).
func (c *Compiled) AppendSlab(dst []byte) []byte {
	nodesOff, leafOff, size := slabOffsets(uint64(c.InputsNeeded()), uint64(c.NumTrees()), uint64(len(c.nodes)), uint64(len(c.leaf)))
	off := len(dst)
	dst = append(dst, make([]byte, size)...)
	b := dst[off:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], slabMagic)
	le.PutUint32(b[4:], uint32(c.NumTrees()))
	le.PutUint32(b[8:], uint32(c.InputsNeeded()))
	le.PutUint32(b[12:], uint32(len(c.nodes)))
	le.PutUint32(b[16:], uint32(len(c.leaf)))
	le.PutUint64(b[24:], math.Float64bits(c.base))
	le.PutUint64(b[32:], math.Float64bits(c.rate))
	p := slabHeaderSize
	for _, offs := range [][]uint32{c.featOff, c.leafOff} {
		for _, o := range offs {
			le.PutUint32(b[p:], o)
			p += 4
		}
	}
	p = int(nodesOff)
	for _, n := range c.nodes {
		le.PutUint64(b[p:], n.key)
		le.PutUint32(b[p+8:], n.tree)
		le.PutUint32(b[p+12:], n.mask)
		p += slabNodeSize
	}
	p = int(leafOff)
	for _, v := range c.leaf {
		le.PutUint64(b[p:], math.Float64bits(v))
		p += 8
	}
	return dst
}

// CompiledFromSlab reconstructs a Compiled view over the slab bytes.
// On a little-endian host with an 8-byte-aligned b all four arrays
// alias b directly — zero copy, so b must stay unmodified for the
// lifetime of the returned Compiled, which keeps it alive. Otherwise
// the arrays are decoded onto the heap and b may be discarded.
func CompiledFromSlab(b []byte) (*Compiled, error) {
	if len(b) < slabHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want >= %d", ErrSlab, len(b), slabHeaderSize)
	}
	le := binary.LittleEndian
	if m := le.Uint32(b[0:]); m != slabMagic {
		return nil, fmt.Errorf("%w: magic %#x, want %#x", ErrSlab, m, slabMagic)
	}
	nTrees, nFeat := uint64(le.Uint32(b[4:])), uint64(le.Uint32(b[8:]))
	nNodes, nLeaves := uint64(le.Uint32(b[12:])), uint64(le.Uint32(b[16:]))
	if nTrees > maxSlabTrees || nFeat > maxSlabFeat || nNodes > maxSlabNodes || nLeaves > maxLeaves*nTrees {
		return nil, fmt.Errorf("%w: %d trees / %d features / %d nodes / %d leaves exceed caps", ErrSlab, nTrees, nFeat, nNodes, nLeaves)
	}
	nodesOff, leafOff, size := slabOffsets(nFeat, nTrees, nNodes, nLeaves)
	if uint64(len(b)) != size {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrSlab, len(b), size)
	}
	c := &Compiled{}
	c.base = math.Float64frombits(le.Uint64(b[24:]))
	c.rate = math.Float64frombits(le.Uint64(b[32:]))
	if math.IsNaN(c.base) || math.IsInf(c.base, 0) || math.IsNaN(c.rate) || math.IsInf(c.rate, 0) {
		return nil, fmt.Errorf("%w: non-finite base/rate", ErrSlab)
	}
	// Every count is now bounded by len(b), so int holds it.
	nOffs := int(nFeat + 1 + nTrees + 1)
	ob, nb, lb := b[slabHeaderSize:], b[nodesOff:leafOff], b[leafOff:]
	if hostLittleEndian && !slabForceCopy && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		offs := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ob))), nOffs)
		c.featOff, c.leafOff = offs[:nFeat+1:nFeat+1], offs[nFeat+1:]
		c.nodes = unsafe.Slice((*node)(unsafe.Pointer(unsafe.SliceData(nb))), int(nNodes))
		c.leaf = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(lb))), int(nLeaves))
	} else {
		offs := make([]uint32, nOffs)
		for i := range offs {
			offs[i] = le.Uint32(ob[4*i:])
		}
		c.featOff, c.leafOff = offs[:nFeat+1:nFeat+1], offs[nFeat+1:]
		c.nodes = make([]node, nNodes)
		for i := range c.nodes {
			r := nb[slabNodeSize*i:]
			c.nodes[i] = node{key: le.Uint64(r), tree: le.Uint32(r[8:]), mask: le.Uint32(r[12:])}
		}
		c.leaf = make([]float64, nLeaves)
		for i := range c.leaf {
			c.leaf[i] = math.Float64frombits(le.Uint64(lb[8*i:]))
		}
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate checks everything scoring indexes by, so no index can leave
// its array: both offset tables start at 0, end at their array's length
// and never step back; a tree has 1 to 32 leaves; every record names an
// existing tree, and its mask keeps that tree's last leaf and no bit
// beyond it — so the word a row ends with always selects one of the
// tree's own leaves; keys ascend within a feature's run, which is what
// lets the scan stop at the first key it does not exceed.
func (c *Compiled) validate() error {
	if err := checkOffsets("feature", c.featOff, len(c.nodes), 0, len(c.nodes)); err != nil {
		return err
	}
	if err := checkOffsets("tree", c.leafOff, len(c.leaf), 1, maxLeaves); err != nil {
		return err
	}
	nTrees := uint32(c.NumTrees())
	for f := 0; f < c.InputsNeeded(); f++ {
		run := c.nodes[c.featOff[f]:c.featOff[f+1]]
		for i, n := range run {
			if n.tree >= nTrees {
				return fmt.Errorf("%w: feature %d record %d: tree %d of %d", ErrSlab, f, i, n.tree, nTrees)
			}
			last := uint32(1) << (c.leafOff[n.tree+1] - c.leafOff[n.tree] - 1)
			if n.mask&last == 0 || n.mask > last|(last-1) {
				return fmt.Errorf("%w: feature %d record %d: mask %#x for a %d-leaf tree", ErrSlab, f, i, n.mask, c.leafOff[n.tree+1]-c.leafOff[n.tree])
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
