package array

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary layouts are little-endian throughout: chunk payloads are bare
// element sequences; whole-array serializations (network protocol,
// file-store headers) carry a small descriptor followed by the
// elements in row-major order.

// DecodeElem reads one element from an 8-byte payload slice.
func DecodeElem(b []byte, t ElemType) Number {
	u := binary.LittleEndian.Uint64(b)
	if t == Int {
		return IntN(int64(u))
	}
	return FloatN(math.Float64frombits(u))
}

// EncodeElem writes one element into an 8-byte payload slice.
func EncodeElem(b []byte, v Number, t ElemType) {
	var u uint64
	if t == Int {
		u = uint64(v.Intval())
	} else {
		u = math.Float64bits(v.Float())
	}
	binary.LittleEndian.PutUint64(b, u)
}

// EncodeChunks encodes the view's elements, row-major, as payloads of
// chunkElems elements each (the last may be short) and hands them to
// emit in chunk order. The payload is one buffer reused for every
// chunk: emit copies what it keeps. A resident contiguous view is
// encoded straight from its base, with no whole-array copy; any other
// view is materialized first. A chunk holds at least one element.
func EncodeChunks(a *Array, chunkElems int, emit func(chunkNo int, payload []byte) error) error {
	chunkElems = max(chunkElems, 1)
	if !a.Base.Resident() || !a.IsContiguous() {
		m, err := a.Materialize()
		if err != nil {
			return err
		}
		a = m
	}
	n := a.Count()
	buf := make([]byte, 0, min(n, chunkElems)*ElemSize)
	for c, lo := 0, a.Offset; lo < a.Offset+n; c, lo = c+1, lo+chunkElems {
		if err := emit(c, appendSlab(buf, a.Base, lo, min(lo+chunkElems, a.Offset+n))); err != nil {
			return err
		}
	}
	return nil
}

// appendSlab appends the elements [lo, hi) of a resident base.
func appendSlab(dst []byte, b *BaseArray, lo, hi int) []byte {
	if b.Etype == Int {
		for _, v := range b.I[lo:hi] {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst
	}
	for _, v := range b.F[lo:hi] {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeInto fills a resident base array's elements from a raw payload
// starting at element position elemOff.
func DecodeInto(b *BaseArray, elemOff int, payload []byte) error {
	if !b.Resident() {
		return fmt.Errorf("array: cannot decode into proxied base")
	}
	n := len(payload) / ElemSize
	if elemOff+n > b.Size {
		return fmt.Errorf("array: payload of %d elements at offset %d exceeds size %d", n, elemOff, b.Size)
	}
	for i := 0; i < n; i++ {
		u := binary.LittleEndian.Uint64(payload[i*ElemSize:])
		if b.Etype == Int {
			b.I[elemOff+i] = int64(u)
		} else {
			b.F[elemOff+i] = math.Float64frombits(u)
		}
	}
	return nil
}

// AppendMarshal appends the serialization of the view to dst:
//
//	byte    element type
//	uint16  number of dimensions
//	int64   extent per dimension
//	...     elements, row-major, little-endian
//
// The view is walked once, with no intermediate copy: a resident
// contiguous view appends its slab in one loop, any other view goes
// element by element (a proxied one through the chunk pipeline).
func AppendMarshal(dst []byte, a *Array) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint16(append(dst, byte(a.Base.Etype)), uint16(len(a.Shape)))
	for _, s := range a.Shape {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s))
	}
	n := a.Count()
	if dst = slices.Grow(dst, n*ElemSize); a.Base.Resident() && a.IsContiguous() {
		return appendSlab(dst, a.Base, a.Offset, a.Offset+n), nil
	}
	err := a.Each(func(_ []int, v Number) error {
		dst = append(dst, make([]byte, ElemSize)...)
		EncodeElem(dst[len(dst)-ElemSize:], v, v.T)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Unmarshal reconstructs an array serialized by AppendMarshal.
func Unmarshal(b []byte) (*Array, error) {
	if len(b) < 3 || (ElemType(b[0]) != Int && ElemType(b[0]) != Float) {
		return nil, fmt.Errorf("array: bad serialization header % x", b[:min(len(b), 3)])
	}
	ndims := int(binary.LittleEndian.Uint16(b[1:]))
	header := 3 + 8*ndims
	if ndims == 0 || len(b) < header {
		return nil, fmt.Errorf("array: %d-byte serialization of %d dimensions", len(b), ndims)
	}
	shape, n := make([]int, ndims), 1
	for d := range shape {
		// Bounded by the bytes present, the extents' product cannot overflow.
		if shape[d] = int(binary.LittleEndian.Uint64(b[3+8*d:])); shape[d] < 1 || shape[d] > len(b)/ElemSize/n {
			return nil, fmt.Errorf("array: invalid extent %d in a %d-byte serialization", shape[d], len(b))
		}
		n *= shape[d]
	}
	if len(b) != header+n*ElemSize {
		return nil, fmt.Errorf("array: serialization is %d bytes, want %d", len(b), header+n*ElemSize)
	}
	var out *Array
	if ElemType(b[0]) == Int {
		out = NewInt(shape...)
	} else {
		out = NewFloat(shape...)
	}
	return out, DecodeInto(out.Base, 0, b[header:])
}
