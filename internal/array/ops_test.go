package array

import (
	"math"
	"testing"
	"testing/quick"
)

func TestApplyNumIntOps(t *testing.T) {
	cases := []struct {
		op   Op
		x, y int64
		want int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpMod, 10, 3, 1},
	}
	for _, c := range cases {
		got, err := ApplyNum(c.op, IntN(c.x), IntN(c.y))
		if err != nil {
			t.Fatal(err)
		}
		if got.T != Int || got.I != c.want {
			t.Fatalf("%d %v %d = %v, want %d", c.x, c.op, c.y, got, c.want)
		}
	}
}

func TestApplyNumDivAlwaysFloat(t *testing.T) {
	got, err := ApplyNum(OpDiv, IntN(7), IntN(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.T != Float || got.F != 3.5 {
		t.Fatalf("7/2 = %v, want 3.5", got)
	}
}

func TestApplyNumErrors(t *testing.T) {
	if _, err := ApplyNum(OpDiv, IntN(1), IntN(0)); err == nil {
		t.Fatal("expected division by zero")
	}
	if _, err := ApplyNum(OpMod, IntN(1), IntN(0)); err == nil {
		t.Fatal("expected modulo by zero")
	}
	if _, err := ApplyNum(OpMod, FloatN(1), FloatN(0)); err == nil {
		t.Fatal("expected float modulo by zero")
	}
}

func TestApplyNumPow(t *testing.T) {
	got, err := ApplyNum(OpPow, IntN(2), IntN(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != 1024 {
		t.Fatalf("2^10 = %v", got)
	}
}

func TestBinOpElementwise(t *testing.T) {
	x := mustFloats(t, []float64{1, 2, 3, 4}, 2, 2)
	y := mustFloats(t, []float64{10, 20, 30, 40}, 2, 2)
	z, err := BinOp(OpAdd, x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33, 44}
	for i, w := range want {
		if z.Base.F[i] != w {
			t.Fatalf("z[%d] = %v, want %v", i, z.Base.F[i], w)
		}
	}
}

func TestBinOpShapeMismatch(t *testing.T) {
	x := NewFloat(2, 2)
	y := NewFloat(4)
	if _, err := BinOp(OpAdd, x, y); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestBinOpIntStaysInt(t *testing.T) {
	x := mustInts(t, []int64{1, 2}, 2)
	y := mustInts(t, []int64{3, 4}, 2)
	z, err := BinOp(OpMul, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if z.Etype() != Int {
		t.Fatal("int*int should stay int")
	}
	if z.Base.I[1] != 8 {
		t.Fatalf("got %d", z.Base.I[1])
	}
}

func TestBinOpScalar(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3}, 3)
	z, err := BinOpScalar(OpMul, a, FloatN(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if z.Base.F[2] != 6 {
		t.Fatalf("got %v", z.Base.F[2])
	}
	// scalar on the left: 10 - a
	z2, err := BinOpScalar(OpSub, a, FloatN(10), true)
	if err != nil {
		t.Fatal(err)
	}
	if z2.Base.F[0] != 9 {
		t.Fatalf("got %v", z2.Base.F[0])
	}
}

func TestNegAbs(t *testing.T) {
	a := mustInts(t, []int64{-1, 2, -3}, 3)
	n, err := a.Neg()
	if err != nil {
		t.Fatal(err)
	}
	if n.Base.I[0] != 1 || n.Base.I[1] != -2 {
		t.Fatalf("neg = %v", n.Base.I)
	}
	ab, err := a.Abs()
	if err != nil {
		t.Fatal(err)
	}
	if ab.Base.I[2] != 3 {
		t.Fatalf("abs = %v", ab.Base.I)
	}
	f := mustFloats(t, []float64{-1.5}, 1)
	fa, _ := f.Abs()
	if fa.Base.F[0] != 1.5 {
		t.Fatalf("got %v", fa.Base.F[0])
	}
}

func TestAggregates(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	sum, _ := a.Sum()
	if sum.Float() != 21 {
		t.Fatalf("sum %v", sum)
	}
	avg, _ := a.Avg()
	if avg.Float() != 3.5 {
		t.Fatalf("avg %v", avg)
	}
	mn, _ := a.Min()
	if mn.Float() != 1 {
		t.Fatalf("min %v", mn)
	}
	mx, _ := a.Max()
	if mx.Float() != 6 {
		t.Fatalf("max %v", mx)
	}
	cnt, _ := a.Aggregate(AggCount)
	if cnt.I != 6 {
		t.Fatalf("count %v", cnt)
	}
}

func TestAggregateIntSum(t *testing.T) {
	a := mustInts(t, []int64{5, 10, 15}, 3)
	sum, _ := a.Sum()
	if sum.T != Int || sum.I != 30 {
		t.Fatalf("sum %v", sum)
	}
}

func TestAggregateOverView(t *testing.T) {
	a := mustFloats(t, seqFloat(16), 4, 4)
	diagish, _ := a.Deref([]Range{Span(0, 2), Span(0, 2)}) // [[0 1][4 5]]
	sum, err := diagish.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != 10 {
		t.Fatalf("sum %v, want 10", sum)
	}
}

func TestAggregateAlong(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	rows, err := a.AggregateAlong(AggSum, 1) // sum each row
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(rows.Shape, []int{2}) {
		t.Fatalf("shape %v", rows.Shape)
	}
	v0, _ := rows.At(0)
	v1, _ := rows.At(1)
	if v0.Float() != 6 || v1.Float() != 15 {
		t.Fatalf("got %v %v", v0, v1)
	}
	cols, err := a.AggregateAlong(AggMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := cols.At(2)
	if c2.Float() != 6 {
		t.Fatalf("got %v", c2)
	}
	if _, err := a.AggregateAlong(AggSum, 5); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestAggregateAlong1D(t *testing.T) {
	a := mustFloats(t, []float64{2, 4, 6}, 3)
	r, err := a.AggregateAlong(AggAvg, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := r.At(0)
	if v.Float() != 4 {
		t.Fatalf("got %v", v)
	}
}

func TestEqual(t *testing.T) {
	a := mustInts(t, []int64{1, 2, 3, 4}, 2, 2)
	b := mustFloats(t, []float64{1, 2, 3, 4}, 2, 2)
	eq, err := Equal(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("int and float arrays with same values should be equal")
	}
	c := mustFloats(t, []float64{1, 2, 3, 5}, 2, 2)
	if eq, _ := Equal(a, c); eq {
		t.Fatal("different values should not be equal")
	}
	d := mustFloats(t, []float64{1, 2, 3, 4}, 4)
	if eq, _ := Equal(a, d); eq {
		t.Fatal("different shapes should not be equal")
	}
}

func TestMap(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3}, 3)
	b := mustFloats(t, []float64{10, 20, 30}, 3)
	sum2 := func(args []Number) (Number, error) {
		return FloatN(args[0].Float() + args[1].Float()), nil
	}
	z, err := Map(sum2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if z.Base.F[2] != 33 {
		t.Fatalf("got %v", z.Base.F[2])
	}
	if _, err := Map(sum2); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := Map(sum2, a, NewFloat(2)); err == nil {
		t.Fatal("expected shape mismatch")
	}
}

func TestMapIntResult(t *testing.T) {
	a := mustInts(t, []int64{1, 2, 3}, 3)
	double := func(args []Number) (Number, error) { return IntN(args[0].I * 2), nil }
	z, err := Map(double, a)
	if err != nil {
		t.Fatal(err)
	}
	if z.Etype() != Int || z.Base.I[2] != 6 {
		t.Fatalf("got %v %v", z.Etype(), z.Base.I)
	}
	// A float after integers widens the whole result, earlier values too.
	halveLast := func(args []Number) (Number, error) {
		if args[0].I == 3 {
			return FloatN(1.5), nil
		}
		return IntN(args[0].I * 2), nil
	}
	z, err = Map(halveLast, a)
	if err != nil {
		t.Fatal(err)
	}
	if z.Etype() != Float || z.Base.F[0] != 2 || z.Base.F[1] != 4 || z.Base.F[2] != 1.5 {
		t.Fatalf("got %v %v", z.Etype(), z.Base.F)
	}
}

func TestCondense(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3, 4}, 2, 2)
	max := func(acc, v Number) (Number, error) {
		if v.Float() > acc.Float() {
			return v, nil
		}
		return acc, nil
	}
	got, err := Condense(max, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestBuild(t *testing.T) {
	a, err := Build(Int, []int{3, 3}, func(idx []int) (Number, error) {
		return IntN(int64(idx[0]*10 + idx[1])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.At(2, 1)
	if v.I != 21 {
		t.Fatalf("got %v", v)
	}
	if _, err := Build(Int, []int{0}, nil); err == nil {
		t.Fatal("expected invalid shape error")
	}
}

func TestAggStateMerge(t *testing.T) {
	a := NewAggState()
	a.Add(IntN(1))
	a.Add(IntN(5))
	b := NewAggState()
	b.Add(IntN(-3))
	a.Merge(b)
	mn, _ := a.Result(AggMin)
	if mn.I != -3 {
		t.Fatalf("min %v", mn)
	}
	sum, _ := a.Result(AggSum)
	if sum.I != 3 {
		t.Fatalf("sum %v", sum)
	}
	empty := NewAggState()
	empty.Merge(NewAggState())
	if _, err := empty.Result(AggAvg); err == nil {
		t.Fatal("expected empty aggregate error")
	}
	cnt, _ := empty.Result(AggCount)
	if cnt.I != 0 {
		t.Fatalf("count %v", cnt)
	}
	fresh := NewAggState()
	fresh.Merge(a) // merge into empty adopts
	if got, _ := fresh.Result(AggCount); got.I != 3 {
		t.Fatalf("count %v", got)
	}
}

// Property: (a+b)-b == a elementwise for float arrays.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a, _ := FromFloats(append([]float64(nil), xs...), len(xs))
		b, _ := FromFloats(make([]float64, len(xs)), len(xs))
		for i := range b.Base.F {
			b.Base.F[i] = 1.0
		}
		sum, err := BinOp(OpAdd, a, b)
		if err != nil {
			return false
		}
		back, err := BinOp(OpSub, sum, b)
		if err != nil {
			return false
		}
		eq, err := Equal(a, back)
		return err == nil && eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sum over a whole array equals the sum over its two halves.
func TestSumDecompositionProperty(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) < 2 {
			return true
		}
		a, _ := FromInts(append([]int64(nil), xs...), len(xs))
		mid := len(xs) / 2
		left, err := a.Deref([]Range{Span(0, mid)})
		if err != nil {
			return false
		}
		right, err := a.Deref([]Range{Span(mid, len(xs))})
		if err != nil {
			return false
		}
		total, _ := a.Sum()
		l, _ := left.Sum()
		r, _ := right.Sum()
		return total.I == l.I+r.I
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
