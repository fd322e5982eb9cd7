package array

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Op identifies an elementwise binary operation (dissertation §4.1.4,
// array arithmetic).
type Op uint8

// The elementwise binary operations.
const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // /
	OpMod           // MOD
	OpPow           // ^
)

// String renders the operator in SciSPARQL surface syntax.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "MOD"
	case OpPow:
		return "^"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// ApplyNum applies the operation to two scalars with SciSPARQL numeric
// promotion: integer op integer stays integer except division, which
// is always carried out in doubles.
func ApplyNum(op Op, x, y Number) (Number, error) {
	if x.T == Int && y.T == Int && op != OpDiv && op != OpPow {
		switch op {
		case OpAdd:
			return IntN(x.I + y.I), nil
		case OpSub:
			return IntN(x.I - y.I), nil
		case OpMul:
			return IntN(x.I * y.I), nil
		case OpMod:
			if y.I == 0 {
				return Number{}, errors.New("array: integer modulo by zero")
			}
			return IntN(x.I % y.I), nil
		}
	}
	a, b := x.Float(), y.Float()
	switch op {
	case OpAdd:
		return FloatN(a + b), nil
	case OpSub:
		return FloatN(a - b), nil
	case OpMul:
		return FloatN(a * b), nil
	case OpDiv:
		if b == 0 {
			return Number{}, errors.New("array: division by zero")
		}
		return FloatN(a / b), nil
	case OpMod:
		if b == 0 {
			return Number{}, errors.New("array: modulo by zero")
		}
		return FloatN(math.Mod(a, b)), nil
	case OpPow:
		return FloatN(math.Pow(a, b)), nil
	default:
		return Number{}, fmt.Errorf("array: unknown operation %v", op)
	}
}

func resultEtype(op Op, a, b ElemType) ElemType {
	if a == Int && b == Int && op != OpDiv && op != OpPow {
		return Int
	}
	return Float
}

// BinOp applies op elementwise to two arrays of identical shape,
// producing a fresh resident array.
func BinOp(op Op, x, y *Array) (*Array, error) {
	if !ShapeEqual(x.Shape, y.Shape) {
		return nil, fmt.Errorf("array: shape mismatch %v vs %v in %v", x.Shape, y.Shape, op)
	}
	out := newResult(resultEtype(op, x.Etype(), y.Etype()), x.Shape)
	ym, err := y.Materialize()
	if err != nil {
		return nil, err
	}
	i := 0
	err = x.Each(func(_ []int, xv Number) error {
		var yv Number
		if ym.Base.Etype == Int {
			yv = IntN(ym.Base.I[i])
		} else {
			yv = FloatN(ym.Base.F[i])
		}
		r, err := ApplyNum(op, xv, yv)
		if err != nil {
			return err
		}
		out.storeLinear(i, r)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BinOpScalar applies op elementwise between an array and a scalar.
// When scalarLeft is true the scalar is the left operand (s op a),
// otherwise the right (a op s).
func BinOpScalar(op Op, a *Array, s Number, scalarLeft bool) (*Array, error) {
	out := newResult(resultEtype(op, a.Etype(), s.T), a.Shape)
	i := 0
	err := a.Each(func(_ []int, v Number) error {
		var r Number
		var err error
		if scalarLeft {
			r, err = ApplyNum(op, s, v)
		} else {
			r, err = ApplyNum(op, v, s)
		}
		if err != nil {
			return err
		}
		out.storeLinear(i, r)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Neg returns the elementwise negation.
func (a *Array) Neg() (*Array, error) {
	return BinOpScalar(OpSub, a, IntN(0), true)
}

// Abs returns the elementwise absolute value.
func (a *Array) Abs() (*Array, error) {
	out := newResult(a.Etype(), a.Shape)
	i := 0
	err := a.Each(func(_ []int, v Number) error {
		if v.T == Int {
			if v.I < 0 {
				v.I = -v.I
			}
		} else {
			v.F = math.Abs(v.F)
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

func newResult(t ElemType, shape []int) *Array {
	if t == Int {
		return NewInt(shape...)
	}
	return NewFloat(shape...)
}

// storeLinear writes into a freshly allocated dense result at view
// position i (valid because results are canonical dense arrays).
func (a *Array) storeLinear(i int, v Number) {
	if a.Base.Etype == Int {
		a.Base.I[i] = v.Intval()
	} else {
		a.Base.F[i] = v.Float()
	}
}

// AggOp identifies a whole-array aggregate.
type AggOp uint8

// The whole-array aggregates.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggAvg
	AggCount
)

// String names the aggregate as in the builtin function table.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	default:
		return fmt.Sprintf("AggOp(%d)", uint8(op))
	}
}

// AggState accumulates an aggregate over a stream of numbers. It is
// shared between the in-memory path and back-ends that evaluate
// aggregates server-side (AAPR, §6.1).
type AggState struct {
	Count  int
	SumI   int64
	SumF   float64
	AllInt bool
	Min    float64
	Max    float64
	MinI   int64
	MaxI   int64
}

// NewAggState returns an empty accumulator.
func NewAggState() *AggState { return &AggState{AllInt: true} }

// Add folds one value into the accumulator.
func (s *AggState) Add(v Number) {
	f := v.Float()
	if s.Count == 0 {
		s.Min, s.Max = f, f
		s.MinI, s.MaxI = v.Intval(), v.Intval()
	} else {
		if newMin(f, s.Min) {
			s.Min = f
			s.MinI = v.Intval()
		}
		if newMax(f, s.Max) {
			s.Max = f
			s.MaxI = v.Intval()
		}
	}
	if v.T == Int {
		s.SumI += v.I
	} else {
		s.AllInt = false
	}
	s.SumF += f
	s.Count++
}

// newMin and newMax report whether x replaces a running minimum or
// maximum under ORDER BY's order: numeric, with NaN after every other
// value (+INF included) and tied with NaN. So a NaN is the MAX of any
// group holding one, and the MIN only of a group of NaNs, whatever order
// the values come in. Each costs one comparison unless one side is NaN.
func newMin(x, lo float64) bool { return !(x >= lo) && x == x }

func newMax(x, hi float64) bool { return !(x <= hi) && hi == hi }

// Merge folds another accumulator into s.
func (s *AggState) Merge(o *AggState) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = *o
		return
	}
	if newMin(o.Min, s.Min) {
		s.Min = o.Min
		s.MinI = o.MinI
	}
	if newMax(o.Max, s.Max) {
		s.Max = o.Max
		s.MaxI = o.MaxI
	}
	s.SumI += o.SumI
	s.SumF += o.SumF
	s.AllInt = s.AllInt && o.AllInt
	s.Count += o.Count
}

// Result extracts the aggregate value. Empty input yields an error for
// every aggregate except COUNT.
func (s *AggState) Result(op AggOp) (Number, error) {
	if op == AggCount {
		return IntN(int64(s.Count)), nil
	}
	if s.Count == 0 {
		return Number{}, fmt.Errorf("array: %v of empty array", op)
	}
	switch op {
	case AggSum:
		if s.AllInt {
			return IntN(s.SumI), nil
		}
		return FloatN(s.SumF), nil
	case AggMin:
		if s.AllInt {
			return IntN(s.MinI), nil
		}
		return FloatN(s.Min), nil
	case AggMax:
		if s.AllInt {
			return IntN(s.MaxI), nil
		}
		return FloatN(s.Max), nil
	case AggAvg:
		return FloatN(s.SumF / float64(s.Count)), nil
	default:
		return Number{}, fmt.Errorf("array: unknown aggregate %v", op)
	}
}

// Aggregate computes a whole-view aggregate. When the array is a whole
// proxied base and the back-end advertises aggregate capability, the
// computation is delegated (AAPR) so that no chunk data crosses the
// storage boundary.
func (a *Array) Aggregate(op AggOp) (Number, error) {
	return a.AggregateCtx(context.Background(), op)
}

// AggregateCtx is Aggregate under a context. Without AAPR delegation
// the fold consumes chunks as they stream in from the back-end (see
// EachCtx), overlapping fetch latency with the accumulation.
func (a *Array) AggregateCtx(ctx context.Context, op AggOp) (Number, error) {
	if p := a.Base.Proxy; p != nil && a.IsWholeBase() {
		if st, ok, err := p.aggregateWhole(); err != nil {
			return Number{}, err
		} else if ok {
			return st.Result(op)
		}
	}
	st := NewAggState()
	err := a.EachCtx(ctx, func(_ []int, v Number) error {
		st.Add(v)
		return nil
	})
	if err != nil {
		return Number{}, err
	}
	return st.Result(op)
}

// Sum is shorthand for Aggregate(AggSum).
func (a *Array) Sum() (Number, error) { return a.Aggregate(AggSum) }

// Avg is shorthand for Aggregate(AggAvg).
func (a *Array) Avg() (Number, error) { return a.Aggregate(AggAvg) }

// Min is shorthand for Aggregate(AggMin).
func (a *Array) Min() (Number, error) { return a.Aggregate(AggMin) }

// Max is shorthand for Aggregate(AggMax).
func (a *Array) Max() (Number, error) { return a.Aggregate(AggMax) }

// Equal reports deep numeric equality of two views: identical shapes
// and elementwise equal values with int/float coercion (dissertation
// §4.1.6).
func Equal(x, y *Array) (bool, error) {
	if !ShapeEqual(x.Shape, y.Shape) {
		return false, nil
	}
	ym, err := y.Materialize()
	if err != nil {
		return false, err
	}
	equal := true
	i := 0
	err = x.Each(func(_ []int, xv Number) error {
		var yv Number
		if ym.Base.Etype == Int {
			yv = IntN(ym.Base.I[i])
		} else {
			yv = FloatN(ym.Base.F[i])
		}
		i++
		if xv.Float() != yv.Float() {
			equal = false
			return errStopIteration
		}
		return nil
	})
	if err != nil && err != errStopIteration {
		return false, err
	}
	return equal, nil
}

var errStopIteration = errors.New("stop iteration")
