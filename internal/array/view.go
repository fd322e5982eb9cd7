package array

import "fmt"

// Range describes a per-dimension subscript in an array dereference
// (dissertation §4.1.1). Zero-based, half-open internally; the
// SciSPARQL surface syntax is one-based inclusive à la Matlab and is
// converted by the engine.
//
// A Range is either a single index (Single true) or a strided interval
// [Lo, Hi) with step Step. Hi < 0 means "to the end of the dimension";
// Step defaults to 1.
type Range struct {
	Single bool
	Index  int
	Lo     int
	Hi     int
	Step   int
}

// Idx builds a single-index Range.
func Idx(i int) Range { return Range{Single: true, Index: i} }

// Span builds a [lo,hi) Range with step 1.
func Span(lo, hi int) Range { return Range{Lo: lo, Hi: hi, Step: 1} }

// SpanStep builds a [lo,hi) Range with the given step.
func SpanStep(lo, hi, step int) Range { return Range{Lo: lo, Hi: hi, Step: step} }

// All selects a whole dimension.
func All() Range { return Range{Lo: 0, Hi: -1, Step: 1} }

// Deref applies a full or partial subscript to the array, producing a
// derived view without copying (dissertation §4.1.1–4.1.2):
//
//   - a single-index Range projects the dimension away,
//   - an interval Range slices the dimension,
//   - fewer ranges than dimensions leaves trailing dimensions whole,
//     so a[i] on a 2-D array yields the i-th row.
//
// If every dimension is projected the result is a 1-element 1-D array;
// callers that want a scalar use At instead.
func (a *Array) Deref(ranges []Range) (*Array, error) {
	if len(ranges) > len(a.Shape) {
		return nil, fmt.Errorf("array: %d subscripts for %d-dimensional array", len(ranges), len(a.Shape))
	}
	offset := a.Offset
	var shape, strides []int
	for d := 0; d < len(a.Shape); d++ {
		if d >= len(ranges) {
			shape = append(shape, a.Shape[d])
			strides = append(strides, a.Strides[d])
			continue
		}
		r := ranges[d]
		if r.Single {
			if r.Index < 0 || r.Index >= a.Shape[d] {
				return nil, fmt.Errorf("array: subscript %d out of bounds [0,%d) in dimension %d", r.Index, a.Shape[d], d)
			}
			offset += r.Index * a.Strides[d]
			continue // dimension projected away
		}
		lo, hi, step := r.Lo, r.Hi, r.Step
		if step == 0 {
			step = 1
		}
		if step < 0 {
			return nil, fmt.Errorf("array: negative step %d", step)
		}
		if hi < 0 || hi > a.Shape[d] {
			hi = a.Shape[d]
		}
		if lo < 0 || lo > hi {
			return nil, fmt.Errorf("array: invalid range [%d,%d) in dimension %d of extent %d", lo, hi, d, a.Shape[d])
		}
		n := 0
		if hi > lo {
			n = (hi - lo + step - 1) / step
		}
		if n == 0 {
			return nil, fmt.Errorf("array: empty range [%d,%d):%d in dimension %d", lo, hi, step, d)
		}
		offset += lo * a.Strides[d]
		shape = append(shape, n)
		strides = append(strides, a.Strides[d]*step)
	}
	if len(shape) == 0 {
		// Fully projected: represent as a single-element vector view.
		shape = []int{1}
		strides = []int{1}
	}
	return &Array{Base: a.Base, Offset: offset, Shape: shape, Strides: strides}, nil
}

// Project fixes dimension dim at index i, reducing dimensionality by
// one. Projecting the only dimension yields a 1-element vector.
func (a *Array) Project(dim, i int) (*Array, error) {
	if dim < 0 || dim >= len(a.Shape) {
		return nil, fmt.Errorf("array: projection dimension %d out of range", dim)
	}
	ranges := make([]Range, dim+1)
	for d := 0; d < dim; d++ {
		ranges[d] = All()
	}
	ranges[dim] = Idx(i)
	return a.Deref(ranges)
}

// Transpose permutes the dimensions of the view. perm must be a
// permutation of 0..NDims-1. A nil perm reverses the dimensions (the
// usual matrix transpose).
func (a *Array) Transpose(perm []int) (*Array, error) {
	n := len(a.Shape)
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
	}
	if len(perm) != n {
		return nil, fmt.Errorf("array: permutation of length %d for %d dimensions", len(perm), n)
	}
	seen := make([]bool, n)
	shape := make([]int, n)
	strides := make([]int, n)
	for d, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("array: invalid permutation %v", perm)
		}
		seen[p] = true
		shape[d] = a.Shape[p]
		strides[d] = a.Strides[p]
	}
	return &Array{Base: a.Base, Offset: a.Offset, Shape: shape, Strides: strides}, nil
}

// Reshape returns a view of the same elements with a new shape. The
// element count must match. Non-contiguous views are materialized
// first.
func (a *Array) Reshape(shape ...int) (*Array, error) {
	if err := validShape(shape); err != nil {
		return nil, err
	}
	if Prod(shape) != a.Count() {
		return nil, fmt.Errorf("array: cannot reshape %v (%d elements) to %v (%d elements)",
			a.Shape, a.Count(), shape, Prod(shape))
	}
	src := a
	if !a.IsContiguous() {
		m, err := a.Materialize()
		if err != nil {
			return nil, err
		}
		src = m
	}
	return &Array{
		Base:    src.Base,
		Offset:  src.Offset,
		Shape:   append([]int(nil), shape...),
		Strides: RowMajorStrides(shape),
	}, nil
}
