package mart

import (
	"encoding/binary"
	"errors"
	"math"
)

// The binary encoding follows §7.3 of the paper: per inner node one byte
// of child offset, one byte of split feature and a 4-byte float
// threshold; per leaf a 4-byte float estimate. With ≤ 10 leaves a tree
// fits in ~130 bytes and a 1K-iteration model in ~127 KB.
//
// Layout:
//
//	model : "MART" u8(version) f64(base) f64(rate) u32(nTrees) tree*
//	tree  : u8(nNodes) node*
//	node  : u8(leftOffset)  — 0 marks a leaf
//	        leaf:  f32(value)
//	        inner: u8(feature) f32(threshold) u8(rightOffset)
//
// Offsets are relative to the current node index (left = i + leftOffset),
// which keeps them within one byte for 19-node trees. A decoder accepts
// only trees: every node but the first is the child of exactly one
// earlier node, at most 32 are leaves, and no threshold is NaN.

var magic = [4]byte{'M', 'A', 'R', 'T'}

const encVersion = 1

// ErrBadEncoding is returned when decoding malformed bytes.
var ErrBadEncoding = errors.New("mart: bad encoding")

// AppendBinary serializes the model, appending to dst.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, magic[:]...)
	dst = append(dst, encVersion)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(m.Base))
	dst = append(dst, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(m.Rate))
	dst = append(dst, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.Trees)))
	dst = append(dst, b4[:]...)
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.nodes) > 255 {
			return nil, errors.New("mart: tree too large for compact encoding")
		}
		dst = append(dst, uint8(len(t.nodes)))
		for i := range t.nodes {
			n := &t.nodes[i]
			if n.Feature < 0 {
				dst = append(dst, 0)
				binary.LittleEndian.PutUint32(b4[:], math.Float32bits(float32(n.Value)))
				dst = append(dst, b4[:]...)
				continue
			}
			lo := int(n.Left) - i
			ro := int(n.Right) - i
			if lo < 1 || lo > 255 || ro < 1 || ro > 255 || n.Feature > 255 {
				return nil, errors.New("mart: node offsets exceed compact encoding")
			}
			dst = append(dst, uint8(lo), uint8(n.Feature))
			// Split thresholds compare with <=; round up to the nearest
			// float32 so values exactly at the threshold keep routing
			// left after quantization.
			thr := float32(n.Threshold)
			if float64(thr) < n.Threshold {
				thr = math.Nextafter32(thr, float32(math.Inf(1)))
			}
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(thr))
			dst = append(dst, b4[:]...)
			dst = append(dst, uint8(ro))
		}
	}
	return dst, nil
}

// EncodeBinary serializes the model into a fresh byte slice.
func (m *Model) EncodeBinary() ([]byte, error) {
	return m.AppendBinary(nil)
}

// DecodeBinary reconstructs a model from EncodeBinary output.
func DecodeBinary(src []byte) (*Model, error) {
	r := &reader{buf: src}
	var mg [4]byte
	if !r.bytes(mg[:]) || mg != magic {
		return nil, ErrBadEncoding
	}
	ver, ok := r.u8()
	if !ok || ver != encVersion {
		return nil, ErrBadEncoding
	}
	base, ok := r.f64()
	if !ok {
		return nil, ErrBadEncoding
	}
	rate, ok := r.f64()
	if !ok {
		return nil, ErrBadEncoding
	}
	nTrees, ok := r.u32()
	if !ok || nTrees > 1<<22 {
		return nil, ErrBadEncoding
	}
	m := &Model{Base: base, Rate: rate, Trees: make([]Tree, 0, nTrees)}
	for ti := uint32(0); ti < nTrees; ti++ {
		nNodes, ok := r.u8()
		if !ok || nNodes == 0 {
			return nil, ErrBadEncoding
		}
		// Forward offsets rule out cycles; one parent each rules out
		// shared children, which Compile would unfold exponentially.
		if nNodes >= 2*maxLeaves {
			return nil, ErrBadEncoding
		}
		t := Tree{nodes: make([]treeNode, nNodes)}
		var parents [2 * maxLeaves]uint8
		for i := 0; i < int(nNodes); i++ {
			lo, ok := r.u8()
			if !ok {
				return nil, ErrBadEncoding
			}
			if lo == 0 {
				v, ok := r.f32()
				if !ok {
					return nil, ErrBadEncoding
				}
				t.nodes[i] = treeNode{Feature: -1, Value: float64(v)}
				continue
			}
			feat, ok1 := r.u8()
			thr, ok2 := r.f32()
			ro, ok3 := r.u8()
			if !ok1 || !ok2 || !ok3 || ro == 0 || math.IsNaN(float64(thr)) {
				return nil, ErrBadEncoding
			}
			left := i + int(lo)
			right := i + int(ro)
			if left >= int(nNodes) || right >= int(nNodes) {
				return nil, ErrBadEncoding
			}
			parents[left]++
			parents[right]++
			t.nodes[i] = treeNode{
				Feature:   int32(feat),
				Threshold: float64(thr),
				Left:      int32(left),
				Right:     int32(right),
			}
		}
		for _, n := range parents[1:nNodes] {
			if n != 1 {
				return nil, ErrBadEncoding
			}
		}
		m.Trees = append(m.Trees, t)
	}
	if len(r.buf) != r.pos {
		return nil, ErrBadEncoding
	}
	return m, nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) bytes(dst []byte) bool {
	if r.pos+len(dst) > len(r.buf) {
		return false
	}
	copy(dst, r.buf[r.pos:])
	r.pos += len(dst)
	return true
}

func (r *reader) u8() (uint8, bool) {
	if r.pos >= len(r.buf) {
		return 0, false
	}
	v := r.buf[r.pos]
	r.pos++
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.pos+4 > len(r.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, true
}

func (r *reader) f32() (float32, bool) {
	v, ok := r.u32()
	return math.Float32frombits(v), ok
}

func (r *reader) f64() (float64, bool) {
	if r.pos+8 > len(r.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return math.Float64frombits(v), true
}
