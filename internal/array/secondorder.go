package array

import (
	"context"
	"fmt"
)

// Mapper is a scalar function lifted over arrays by Map. The engine
// passes SciSPARQL user-defined functions, foreign functions and
// lexical closures (dissertation §4.3) in this form.
type Mapper func(args []Number) (Number, error)

// Map applies f elementwise across one or more arrays of identical
// shape, producing a fresh resident array (the Array-Algebra MAP
// second-order function, §4.3.1). The result is an integer array when
// every produced value is an integer, otherwise a float array.
func Map(f Mapper, arrays ...*Array) (*Array, error) {
	return MapCtx(context.Background(), f, arrays...)
}

// MapCtx is Map under a context. The first array's elements stream
// through the chunk pipeline while f executes, overlapping back-end
// latency with the (possibly expensive) mapped function; additional
// argument arrays are materialized up front.
func MapCtx(ctx context.Context, f Mapper, arrays ...*Array) (*Array, error) {
	if len(arrays) == 0 {
		return nil, fmt.Errorf("array: MAP needs at least one array")
	}
	shape := arrays[0].Shape
	for _, a := range arrays[1:] {
		if !ShapeEqual(shape, a.Shape) {
			return nil, fmt.Errorf("array: MAP shape mismatch %v vs %v", shape, a.Shape)
		}
	}
	rest := make([]*Array, len(arrays)-1)
	for i, a := range arrays[1:] {
		m, err := a.MaterializeCtx(ctx)
		if err != nil {
			return nil, err
		}
		rest[i] = m
	}
	// The result slab takes the first value's type and is widened to
	// float, once, at the first non-integer value.
	var out *Array
	args := make([]Number, len(arrays))
	i := 0
	err := arrays[0].EachCtx(ctx, func(_ []int, v0 Number) error {
		args[0] = v0
		for k, m := range rest {
			if m.Base.Etype == Int {
				args[k+1] = IntN(m.Base.I[i])
			} else {
				args[k+1] = FloatN(m.Base.F[i])
			}
		}
		v, err := f(args)
		if err != nil {
			return err
		}
		if out == nil {
			out = newResult(v.T, shape)
		} else if v.T != Int && out.Base.Etype == Int {
			wide := NewFloat(shape...)
			for k, x := range out.Base.I[:i] {
				wide.Base.F[k] = float64(x)
			}
			out = wide
		}
		out.storeLinear(i, v)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reducer combines two scalars into one; it must be associative and
// commutative for CONDENSE to be well-defined.
type Reducer func(acc, v Number) (Number, error)

// Condense folds the elements of the view into a single scalar using
// the reducer (the Array-Algebra CONDENSE second-order function,
// §4.3.1). Empty views cannot occur (shapes have positive extents).
func Condense(f Reducer, a *Array) (Number, error) {
	return CondenseCtx(context.Background(), f, a)
}

// CondenseCtx is Condense under a context; the fold consumes chunks as
// they stream in (see EachCtx).
func CondenseCtx(ctx context.Context, f Reducer, a *Array) (Number, error) {
	var acc Number
	first := true
	err := a.EachCtx(ctx, func(_ []int, v Number) error {
		if first {
			acc = v
			first = false
			return nil
		}
		var err error
		acc, err = f(acc, v)
		return err
	})
	if err != nil {
		return Number{}, err
	}
	if first {
		return Number{}, fmt.Errorf("array: CONDENSE over empty array")
	}
	return acc, nil
}

// Generator produces the element at a multi-index; used by Build.
type Generator func(idx []int) (Number, error)

// Build constructs a new resident array of the given shape by invoking
// the generator for every index (the Array-Algebra ARRAY constructor).
func Build(etype ElemType, shape []int, f Generator) (*Array, error) {
	if err := validShape(shape); err != nil {
		return nil, err
	}
	out := newResult(etype, shape)
	idx := make([]int, len(shape))
	n := Prod(shape)
	for i := 0; i < n; i++ {
		v, err := f(idx)
		if err != nil {
			return nil, err
		}
		out.storeLinear(i, v)
		incIndex(idx, shape)
	}
	return out, nil
}

// AggregateAlong reduces one dimension of the view with the given
// aggregate, producing an array of dimensionality NDims-1 (or a
// 1-element vector when the input is 1-D). This implements the
// intra-array computations of §4.1.5.
func (a *Array) AggregateAlong(op AggOp, dim int) (*Array, error) {
	return a.AggregateAlongCtx(context.Background(), op, dim)
}

// AggregateAlongCtx is AggregateAlong under a context.
func (a *Array) AggregateAlongCtx(ctx context.Context, op AggOp, dim int) (*Array, error) {
	if dim < 0 || dim >= len(a.Shape) {
		return nil, fmt.Errorf("array: aggregation dimension %d out of range", dim)
	}
	outShape := make([]int, 0, len(a.Shape)-1)
	for d, s := range a.Shape {
		if d != dim {
			outShape = append(outShape, s)
		}
	}
	if len(outShape) == 0 {
		outShape = []int{1}
	}
	if err := a.PrefetchCtx(ctx); err != nil {
		return nil, err
	}
	return Build(Float, outShape, func(idx []int) (Number, error) {
		full := make([]Range, len(a.Shape))
		k := 0
		for d := range a.Shape {
			if d == dim {
				full[d] = All()
			} else {
				if len(a.Shape) == 1 {
					break
				}
				full[d] = Idx(idx[k])
				k++
			}
		}
		line, err := a.Deref(full)
		if err != nil {
			return Number{}, err
		}
		return line.Aggregate(op)
	})
}

// Vector builds a 1-D array from scalars, preserving integer type when
// every value is an integer.
func Vector(vals ...Number) (*Array, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("array: empty vector")
	}
	allInt := true
	for _, v := range vals {
		if v.T != Int {
			allInt = false
			break
		}
	}
	if allInt {
		data := make([]int64, len(vals))
		for i, v := range vals {
			data[i] = v.I
		}
		return FromInts(data, len(vals))
	}
	data := make([]float64, len(vals))
	for i, v := range vals {
		data[i] = v.Float()
	}
	return FromFloats(data, len(vals))
}

// Dims returns the shape as a 1-D integer array (the SciSPARQL
// built-in adims(), §4.1.3).
func (a *Array) Dims() *Array {
	data := make([]int64, len(a.Shape))
	for i, s := range a.Shape {
		data[i] = int64(s)
	}
	out, _ := FromInts(data, len(data))
	return out
}

// Concat joins 1-D arrays end to end.
func Concat(parts ...*Array) (*Array, error) {
	total := 0
	allInt := true
	for _, p := range parts {
		if p.NDims() != 1 {
			return nil, fmt.Errorf("array: Concat needs 1-D arrays, got %d-D", p.NDims())
		}
		total += p.Count()
		if p.Etype() != Int {
			allInt = false
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("array: empty concatenation")
	}
	if allInt {
		data := make([]int64, 0, total)
		for _, p := range parts {
			if err := p.Each(func(_ []int, v Number) error {
				data = append(data, v.I)
				return nil
			}); err != nil {
				return nil, err
			}
		}
		return FromInts(data, total)
	}
	data := make([]float64, 0, total)
	for _, p := range parts {
		if err := p.Each(func(_ []int, v Number) error {
			data = append(data, v.Float())
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return FromFloats(data, total)
}
