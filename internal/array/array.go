// Package array implements the numeric multidimensional array (NMA)
// data model of SciSPARQL / SSDM (dissertation §4.1, §5.2).
//
// An Array value is a *logical view* — offset, shape and strides — over
// a BaseArray, which holds the elements either resident in memory or as
// a Proxy referring to a chunked external storage back-end. Slicing,
// projection and transposition derive new views without copying, and
// for proxied arrays the element data is fetched lazily, chunk by
// chunk, only when a computation actually touches it (the APR —
// array-proxy-resolve — mechanism of §6.1).
//
// Elements are numeric: 64-bit integers or IEEE-754 doubles, stored in
// row-major order in the base array. Chunking is one-dimensional over
// the base's linear element order, which is the storage design choice
// the dissertation argues for in §2.5: the chunk size is the single
// tuning parameter, and access regularity is discovered at query run
// time by the sequence pattern detector instead of by multidimensional
// tiling.
package array

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ElemType identifies the element type of an array.
type ElemType uint8

const (
	// Int is a 64-bit signed integer element.
	Int ElemType = iota
	// Float is a 64-bit IEEE-754 element.
	Float
)

// ElemSize is the on-wire and on-disk size of one element in bytes.
const ElemSize = 8

// String names the element type as it appears in query output.
func (t ElemType) String() string {
	switch t {
	case Int:
		return "integer"
	case Float:
		return "double"
	default:
		return fmt.Sprintf("ElemType(%d)", uint8(t))
	}
}

// Number is a scalar numeric value of either element type. It is the
// unit of exchange between array computations and the query engine.
type Number struct {
	T ElemType
	I int64
	F float64
}

// IntN wraps an int64 as a Number.
func IntN(i int64) Number { return Number{T: Int, I: i} }

// FloatN wraps a float64 as a Number.
func FloatN(f float64) Number { return Number{T: Float, F: f} }

// Float returns the value as a float64, converting integers.
func (n Number) Float() float64 {
	if n.T == Int {
		return float64(n.I)
	}
	return n.F
}

// Intval returns the value as an int64, truncating floats.
func (n Number) Intval() int64 {
	if n.T == Int {
		return n.I
	}
	return int64(n.F)
}

// String formats the number in its own type's notation.
func (n Number) String() string {
	if n.T == Int {
		return fmt.Sprintf("%d", n.I)
	}
	return fmt.Sprintf("%g", n.F)
}

// BaseArray is the physical array: a dense row-major sequence of
// elements, held resident (I or F populated) or externally (Proxy set).
type BaseArray struct {
	Etype ElemType
	Size  int // total number of elements
	I     []int64
	F     []float64
	Proxy *Proxy
}

// Resident reports whether the element data is held in memory.
func (b *BaseArray) Resident() bool { return b.Proxy == nil }

// Array is a logical view over a BaseArray. The element at
// multi-index (i0, i1, ..., ik) lives at base linear position
// Offset + Σ i_d * Strides[d].
type Array struct {
	Base    *BaseArray
	Offset  int
	Shape   []int
	Strides []int
}

// RowMajorStrides computes the canonical strides for a dense row-major
// layout of the given shape.
func RowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= shape[d]
	}
	return strides
}

// Prod returns the product of the extents, i.e. the element count of an
// array of that shape.
func Prod(shape []int) int {
	p := 1
	for _, s := range shape {
		p *= s
	}
	return p
}

func validShape(shape []int) error {
	if len(shape) == 0 {
		return errors.New("array: empty shape")
	}
	for _, s := range shape {
		if s <= 0 {
			return fmt.Errorf("array: invalid extent %d", s)
		}
	}
	return nil
}

// NewInt allocates a resident integer array of the given shape, zeroed.
func NewInt(shape ...int) *Array {
	mustValidShape(shape)
	n := Prod(shape)
	base := &BaseArray{Etype: Int, Size: n, I: make([]int64, n)}
	return viewOf(base, shape)
}

// NewFloat allocates a resident float array of the given shape, zeroed.
func NewFloat(shape ...int) *Array {
	mustValidShape(shape)
	n := Prod(shape)
	base := &BaseArray{Etype: Float, Size: n, F: make([]float64, n)}
	return viewOf(base, shape)
}

func mustValidShape(shape []int) {
	if err := validShape(shape); err != nil {
		panic(err)
	}
}

func viewOf(base *BaseArray, shape []int) *Array {
	return &Array{
		Base:    base,
		Shape:   append([]int(nil), shape...),
		Strides: RowMajorStrides(shape),
	}
}

// FromFloats builds a resident float array from row-major data. The
// slice is used directly (not copied); it must have Prod(shape)
// elements.
func FromFloats(data []float64, shape ...int) (*Array, error) {
	if err := validShape(shape); err != nil {
		return nil, err
	}
	if len(data) != Prod(shape) {
		return nil, fmt.Errorf("array: %d elements for shape %v (want %d)", len(data), shape, Prod(shape))
	}
	base := &BaseArray{Etype: Float, Size: len(data), F: data}
	return viewOf(base, shape), nil
}

// FromInts builds a resident integer array from row-major data. The
// slice is used directly (not copied); it must have Prod(shape)
// elements.
func FromInts(data []int64, shape ...int) (*Array, error) {
	if err := validShape(shape); err != nil {
		return nil, err
	}
	if len(data) != Prod(shape) {
		return nil, fmt.Errorf("array: %d elements for shape %v (want %d)", len(data), shape, Prod(shape))
	}
	base := &BaseArray{Etype: Int, Size: len(data), I: data}
	return viewOf(base, shape), nil
}

// NewProxied creates a view over an externally stored array. shape is
// the full shape of the stored array; the proxy supplies its elements
// on demand.
func NewProxied(p *Proxy, etype ElemType, shape ...int) (*Array, error) {
	if err := validShape(shape); err != nil {
		return nil, err
	}
	base := &BaseArray{Etype: etype, Size: Prod(shape), Proxy: p}
	return viewOf(base, shape), nil
}

// NDims returns the number of dimensions of the view.
func (a *Array) NDims() int { return len(a.Shape) }

// Count returns the number of elements in the view.
func (a *Array) Count() int { return Prod(a.Shape) }

// Etype returns the element type.
func (a *Array) Etype() ElemType { return a.Base.Etype }

// IsWholeBase reports whether the view covers the entire base array in
// canonical row-major order — the precondition for delegating
// whole-array operations (e.g. aggregates) to a storage back-end.
func (a *Array) IsWholeBase() bool {
	if a.Offset != 0 || a.Count() != a.Base.Size {
		return false
	}
	canonical := RowMajorStrides(a.Shape)
	for d := range canonical {
		if a.Strides[d] != canonical[d] {
			return false
		}
	}
	return true
}

// IsContiguous reports whether the view's elements are consecutive in
// the base's linear order.
func (a *Array) IsContiguous() bool {
	canonical := RowMajorStrides(a.Shape)
	for d := range canonical {
		if a.Shape[d] != 1 && a.Strides[d] != canonical[d] {
			return false
		}
	}
	return true
}

// LinearIndex maps a multi-index to the base linear position. It
// returns an error when the index has the wrong arity or is out of
// bounds (indices are zero-based here; the SciSPARQL language layer is
// one-based and converts).
func (a *Array) LinearIndex(idx []int) (int, error) {
	if len(idx) != len(a.Shape) {
		return 0, fmt.Errorf("array: %d subscripts for %d-dimensional array", len(idx), len(a.Shape))
	}
	lin := a.Offset
	for d, i := range idx {
		if i < 0 || i >= a.Shape[d] {
			return 0, fmt.Errorf("array: subscript %d out of bounds [0,%d) in dimension %d", i, a.Shape[d], d)
		}
		lin += i * a.Strides[d]
	}
	return lin, nil
}

// At returns the element at the given zero-based multi-index, fetching
// from external storage if the array is proxied.
func (a *Array) At(idx ...int) (Number, error) {
	lin, err := a.LinearIndex(idx)
	if err != nil {
		return Number{}, err
	}
	return a.atLinear(lin)
}

// atLinear reads a base linear position.
func (a *Array) atLinear(lin int) (Number, error) {
	b := a.Base
	if b.Resident() {
		if b.Etype == Int {
			return IntN(b.I[lin]), nil
		}
		return FloatN(b.F[lin]), nil
	}
	return b.Proxy.elementAt(lin, b.Etype)
}

// SetAt stores a value at the given zero-based multi-index. Only
// resident arrays can be written; the value is converted to the
// element type.
func (a *Array) SetAt(v Number, idx ...int) error {
	if !a.Base.Resident() {
		return errors.New("array: cannot write to proxied array")
	}
	lin, err := a.LinearIndex(idx)
	if err != nil {
		return err
	}
	if a.Base.Etype == Int {
		a.Base.I[lin] = v.Intval()
	} else {
		a.Base.F[lin] = v.Float()
	}
	return nil
}

// Each iterates over the view in row-major order of the *view's* index
// space, calling f with the multi-index (reused between calls — copy if
// retained) and the element value. Proxied elements are fetched through
// the chunk pipeline; see EachCtx.
func (a *Array) Each(f func(idx []int, v Number) error) error {
	return a.EachCtx(context.Background(), f)
}

// ctxCheckMask paces cancellation polls in element loops: positions are
// checked every (mask+1) elements, keeping the per-element cost to a
// counter test.
const ctxCheckMask = 4095

// EachCtx is Each under a context. For a contiguous view of a proxied
// array the iteration *streams*: chunks are fetched through the
// back-end's worker pool while earlier chunks are being folded, so
// back-end latency overlaps with computation and memory stays bounded
// by the pipeline window rather than the view size. Non-contiguous
// proxied views are prefetched in one batched fetch first; resident
// views iterate directly with periodic cancellation checks.
func (a *Array) EachCtx(ctx context.Context, f func(idx []int, v Number) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b := a.Base
	if !b.Resident() {
		if a.IsContiguous() {
			return a.eachStream(ctx, f)
		}
		if err := a.PrefetchCtx(ctx); err != nil {
			return err
		}
	}
	idx := make([]int, len(a.Shape))
	n := a.Count()
	for i := 0; i < n; i++ {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		lin, _ := a.LinearIndex(idx)
		v, err := a.atLinear(lin)
		if err != nil {
			return err
		}
		if err := f(idx, v); err != nil {
			return err
		}
		incIndex(idx, a.Shape)
	}
	return nil
}

// eachStream iterates a contiguous proxied view chunk by chunk as the
// payloads arrive from the streaming fetch pipeline. Contiguity means
// view position i lives at base linear position Offset+i, so each
// chunk's slice of the view is decoded in place without going back
// through the cache per element.
func (a *Array) eachStream(ctx context.Context, f func(idx []int, v Number) error) error {
	p := a.Base.Proxy
	etype := a.Base.Etype
	n := a.Count()
	ce := p.ChunkElems
	first := a.Offset / ce
	last := (a.Offset + n - 1) / ce
	chunkNos := make([]int, 0, last-first+1)
	for c := first; c <= last; c++ {
		chunkNos = append(chunkNos, c)
	}
	idx := make([]int, len(a.Shape))
	return p.StreamChunks(ctx, chunkNos, func(cn int, data []byte) error {
		linStart := cn * ce
		lo := a.Offset - linStart
		if lo < 0 {
			lo = 0
		}
		hi := a.Offset + n - linStart
		if hi > ce {
			hi = ce
		}
		for e := lo; e < hi; e++ {
			off := e * ElemSize
			if off+ElemSize > len(data) {
				return fmt.Errorf("array: element %d beyond end of chunk %d (len %d)", linStart+e, cn, len(data))
			}
			if err := f(idx, DecodeElem(data[off:off+ElemSize], etype)); err != nil {
				return err
			}
			incIndex(idx, a.Shape)
		}
		return nil
	})
}

// incIndex advances a multi-index odometer-style within shape.
func incIndex(idx, shape []int) {
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
			return
		}
		idx[d] = 0
	}
}

// Materialize copies the view into a fresh resident dense array of the
// same shape, resolving proxies through the chunk pipeline.
func (a *Array) Materialize() (*Array, error) {
	return a.MaterializeCtx(context.Background())
}

// MaterializeCtx is Materialize under a context (see EachCtx for the
// streaming behavior on proxied views). A resident contiguous view is
// one copy of its slab.
func (a *Array) MaterializeCtx(ctx context.Context) (*Array, error) {
	var out *Array
	if a.Base.Etype == Int {
		out = NewInt(a.Shape...)
	} else {
		out = NewFloat(a.Shape...)
	}
	if a.Base.Resident() && a.IsContiguous() {
		lo, hi := a.Offset, a.Offset+a.Count()
		if a.Base.Etype == Int {
			copy(out.Base.I, a.Base.I[lo:hi])
		} else {
			copy(out.Base.F, a.Base.F[lo:hi])
		}
		return out, nil
	}
	i := 0
	err := a.EachCtx(ctx, func(_ []int, v Number) error {
		if out.Base.Etype == Int {
			out.Base.I[i] = v.I
		} else {
			out.Base.F[i] = v.F
		}
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

const maxRenderElems = 64

// String renders the array in a nested-bracket notation, truncated for
// large arrays.
func (a *Array) String() string {
	var sb strings.Builder
	count := 0
	var render func(dim int, idx []int)
	render = func(dim int, idx []int) {
		sb.WriteByte('[')
		for i := 0; i < a.Shape[dim]; i++ {
			if count >= maxRenderElems {
				sb.WriteString("...")
				break
			}
			if i > 0 {
				sb.WriteByte(' ')
			}
			idx[dim] = i
			if dim == len(a.Shape)-1 {
				v, err := a.At(idx...)
				if err != nil {
					sb.WriteString("?")
				} else {
					sb.WriteString(v.String())
				}
				count++
			} else {
				render(dim+1, idx)
			}
		}
		sb.WriteByte(']')
	}
	render(0, make([]int, len(a.Shape)))
	return sb.String()
}

// ShapeEqual reports whether two shapes are identical.
func ShapeEqual(a, b []int) bool { return slices.Equal(a, b) }
