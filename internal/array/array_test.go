package array

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func mustFloats(t *testing.T, data []float64, shape ...int) *Array {
	t.Helper()
	a, err := FromFloats(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustInts(t *testing.T, data []int64, shape ...int) *Array {
	t.Helper()
	a, err := FromInts(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func seqFloat(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestNewAndAt(t *testing.T) {
	a := mustFloats(t, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.NDims() != 2 || a.Count() != 6 {
		t.Fatalf("ndims=%d count=%d", a.NDims(), a.Count())
	}
	v, err := a.At(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 6 {
		t.Fatalf("At(1,2) = %v, want 6", v)
	}
}

func TestAtOutOfBounds(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	if _, err := a.At(2, 0); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if _, err := a.At(0); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := a.At(0, -1); err == nil {
		t.Fatal("expected negative-index error")
	}
}

func TestFromFloatsShapeMismatch(t *testing.T) {
	if _, err := FromFloats([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := FromFloats(nil); err == nil {
		t.Fatal("expected empty shape error")
	}
	if _, err := FromFloats([]float64{1}, -1); err == nil {
		t.Fatal("expected invalid extent error")
	}
}

func TestSetAt(t *testing.T) {
	a := NewInt(2, 2)
	if err := a.SetAt(FloatN(7.9), 1, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := a.At(1, 1)
	if v.I != 7 {
		t.Fatalf("got %v, want truncated 7", v)
	}
}

func TestSliceView(t *testing.T) {
	// 4x4 matrix 0..15; take rows 1..2, cols 0..3 step 2.
	a := mustFloats(t, seqFloat(16), 4, 4)
	v, err := a.Deref([]Range{Span(1, 3), SpanStep(0, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(v.Shape, []int{2, 2}) {
		t.Fatalf("shape %v", v.Shape)
	}
	want := [][]float64{{4, 6}, {8, 10}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			got, _ := v.At(i, j)
			if got.Float() != want[i][j] {
				t.Fatalf("v[%d,%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestProjectRow(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	row, err := a.Deref([]Range{Idx(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(row.Shape, []int{3}) {
		t.Fatalf("shape %v", row.Shape)
	}
	got, _ := row.At(2)
	if got.Float() != 5 {
		t.Fatalf("row[2] = %v, want 5", got)
	}
}

func TestDerefPartial(t *testing.T) {
	a := mustFloats(t, seqFloat(24), 2, 3, 4)
	v, err := a.Deref([]Range{Idx(1), Idx(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(v.Shape, []int{4}) {
		t.Fatalf("shape %v", v.Shape)
	}
	got, _ := v.At(0)
	if got.Float() != 20 {
		t.Fatalf("got %v, want 20", got)
	}
}

func TestDerefErrors(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	if _, err := a.Deref([]Range{Idx(0), Idx(0), Idx(0)}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := a.Deref([]Range{Idx(5)}); err == nil {
		t.Fatal("expected bounds error")
	}
	if _, err := a.Deref([]Range{Span(3, 2)}); err == nil {
		t.Fatal("expected empty-range error")
	}
	if _, err := a.Deref([]Range{SpanStep(0, 2, -1)}); err == nil {
		t.Fatal("expected negative-step error")
	}
}

func TestTranspose(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	tr, err := a.Transpose(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(tr.Shape, []int{3, 2}) {
		t.Fatalf("shape %v", tr.Shape)
	}
	got, _ := tr.At(2, 1)
	if got.Float() != 5 {
		t.Fatalf("tr[2,1] = %v, want 5", got)
	}
	if _, err := a.Transpose([]int{0, 0}); err == nil {
		t.Fatal("expected invalid permutation error")
	}
}

func TestReshapeContiguous(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	r, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base != a.Base {
		t.Fatal("contiguous reshape should share the base")
	}
	got, _ := r.At(2, 1)
	if got.Float() != 5 {
		t.Fatalf("got %v", got)
	}
	if _, err := a.Reshape(4); err == nil {
		t.Fatal("expected element count mismatch error")
	}
}

func TestReshapeNonContiguousCopies(t *testing.T) {
	a := mustFloats(t, seqFloat(16), 4, 4)
	v, _ := a.Deref([]Range{SpanStep(0, 4, 2), All()}) // rows 0,2
	r, err := v.Reshape(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base == a.Base {
		t.Fatal("non-contiguous reshape must copy")
	}
	got, _ := r.At(4)
	if got.Float() != 8 {
		t.Fatalf("got %v, want 8", got)
	}
}

func TestMaterializeView(t *testing.T) {
	a := mustFloats(t, seqFloat(16), 4, 4)
	v, _ := a.Deref([]Range{Span(1, 3), Span(1, 3)})
	m, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10}
	for i, w := range want {
		if m.Base.F[i] != w {
			t.Fatalf("m[%d] = %v, want %v", i, m.Base.F[i], w)
		}
	}
}

// A resident contiguous view materializes as one copy of its slab: the
// elements from its offset, of either type, in a base of its own.
func TestMaterializeContiguousSlab(t *testing.T) {
	ints, _ := FromInts([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 4, 3)
	floats := mustFloats(t, seqFloat(12), 4, 3)
	for _, a := range []*Array{ints, floats} {
		v, _ := a.Deref([]Range{Span(1, 3)})
		m, err := v.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if m.Base == a.Base || m.Base.Size != 6 || !ShapeEqual(m.Shape, []int{2, 3}) {
			t.Fatalf("materialized %v over a base of %d", m.Shape, m.Base.Size)
		}
		for i := range 6 {
			if got, _ := m.atLinear(i); got.Float() != float64(3+i) || got.T != a.Etype() {
				t.Fatalf("element %d is %v, want %d", i, got, 3+i)
			}
		}
	}
}

func TestIsWholeBaseAndContiguous(t *testing.T) {
	a := mustFloats(t, seqFloat(6), 2, 3)
	if !a.IsWholeBase() || !a.IsContiguous() {
		t.Fatal("fresh array should be whole and contiguous")
	}
	v, _ := a.Deref([]Range{Idx(0)})
	if v.IsWholeBase() {
		t.Fatal("row view is not whole base")
	}
	if !v.IsContiguous() {
		t.Fatal("first row should be contiguous")
	}
	s, _ := a.Deref([]Range{All(), SpanStep(0, 3, 2)})
	if s.IsContiguous() {
		t.Fatal("strided column view is not contiguous")
	}
}

func TestStringRendering(t *testing.T) {
	a := mustInts(t, []int64{1, 2, 3, 4}, 2, 2)
	if got := a.String(); got != "[[1 2] [3 4]]" {
		t.Fatalf("String() = %q", got)
	}
	big := NewInt(100, 100)
	if s := big.String(); !strings.Contains(s, "...") {
		t.Fatal("large arrays should render truncated")
	}
}

func TestDims(t *testing.T) {
	a := NewFloat(3, 5, 7)
	d := a.Dims()
	if !ShapeEqual(d.Shape, []int{3}) {
		t.Fatalf("shape %v", d.Shape)
	}
	v, _ := d.At(1)
	if v.I != 5 {
		t.Fatalf("got %v", v)
	}
}

func TestVector(t *testing.T) {
	v, err := Vector(IntN(1), IntN(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Etype() != Int || v.Count() != 2 {
		t.Fatalf("etype=%v count=%d", v.Etype(), v.Count())
	}
	vf, _ := Vector(IntN(1), FloatN(2.5))
	if vf.Etype() != Float {
		t.Fatal("mixed vector should be float")
	}
	if _, err := Vector(); err == nil {
		t.Fatal("expected empty vector error")
	}
}

func TestConcat(t *testing.T) {
	a := mustInts(t, []int64{1, 2}, 2)
	b := mustInts(t, []int64{3}, 1)
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 3 {
		t.Fatalf("count %d", c.Count())
	}
	v, _ := c.At(2)
	if v.I != 3 {
		t.Fatalf("got %v", v)
	}
	m := mustInts(t, []int64{1, 2, 3, 4}, 2, 2)
	if _, err := Concat(a, m); err == nil {
		t.Fatal("expected 1-D error")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := mustFloats(t, seqFloat(12), 3, 4)
	b, err := AppendMarshal(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := Equal(a, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("round trip changed the array")
	}
}

// TestAppendMarshalViews: whatever the view — contiguous with an offset,
// strided, transposed, proxied — AppendMarshal appends to what dst holds
// the serialization of its materialized copy.
func TestAppendMarshalViews(t *testing.T) {
	ints := mustInts(t, []int64{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12}, 3, 4)
	floats := mustFloats(t, seqFloat(12), 3, 4)
	proxied, _ := newProxied(t, 100, 7, 10, 10)
	views := map[string]func() (*Array, error){
		"whole ints":       func() (*Array, error) { return ints, nil },
		"whole floats":     func() (*Array, error) { return floats, nil },
		"row with offset":  func() (*Array, error) { return floats.Project(0, 1) },
		"strided column":   func() (*Array, error) { return ints.Deref([]Range{All(), Idx(2)}) },
		"stepped rows":     func() (*Array, error) { return floats.Deref([]Range{SpanStep(0, 3, 2), Span(1, 3)}) },
		"transposed":       func() (*Array, error) { return ints.Transpose(nil) },
		"proxied whole":    func() (*Array, error) { return proxied, nil },
		"proxied strided":  func() (*Array, error) { return proxied.Deref([]Range{SpanStep(1, 10, 3), SpanStep(0, 10, 4)}) },
		"proxied row tail": func() (*Array, error) { return proxied.Deref([]Range{Idx(4), Span(3, 10)}) },
	}
	for name, view := range views {
		v, err := view()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prefix := []byte("prefix")
		b, err := AppendMarshal(append([]byte(nil), prefix...), v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(b[:len(prefix)]) != string(prefix) {
			t.Fatalf("%s: the bytes already in dst changed", name)
		}
		back, err := Unmarshal(b[len(prefix):])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := v.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if eq, err := Equal(m, back); err != nil || !eq || back.Etype() != v.Etype() || !ShapeEqual(back.Shape, v.Shape) {
			t.Fatalf("%s: round trip gave %v, want %v", name, back, m)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	// Extents whose product wraps to 0 (2^61 × 8 × 8 bytes) must not pass
	// for an empty payload.
	wraps := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{1, 2, 0}, 1<<61), 8)
	negative := binary.LittleEndian.AppendUint64([]byte{1, 1, 0}, 1<<63)
	for _, b := range [][]byte{nil, {0}, {9, 1, 0}, {0, 1, 0, 1, 2, 3}, {0, 0, 0}, wraps, negative} {
		if _, err := Unmarshal(b); err == nil {
			t.Fatalf("Unmarshal(%v) should fail", b)
		}
	}
}

// Property: slicing then materializing equals materializing then
// slicing elementwise — views compose consistently with eager copies.
func TestViewVsEagerProperty(t *testing.T) {
	f := func(rows8, cols8, lo8, hi8, step8 uint8) bool {
		rows := int(rows8%7) + 2
		cols := int(cols8%7) + 2
		lo := int(lo8) % rows
		hi := lo + 1 + int(hi8)%(rows-lo)
		step := int(step8%3) + 1
		a := NewFloat(rows, cols)
		for i := range a.Base.F {
			a.Base.F[i] = float64(i * 3)
		}
		v, err := a.Deref([]Range{SpanStep(lo, hi, step), All()})
		if err != nil {
			return false
		}
		m, err := v.Materialize()
		if err != nil {
			return false
		}
		for i := 0; i < v.Shape[0]; i++ {
			for j := 0; j < cols; j++ {
				want, _ := a.At(lo+i*step, j)
				got, _ := m.At(i, j)
				if got.Float() != want.Float() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary 1-D int arrays.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(data []int64) bool {
		if len(data) == 0 {
			return true
		}
		a, err := FromInts(data, len(data))
		if err != nil {
			return false
		}
		b, err := AppendMarshal(nil, a)
		if err != nil {
			return false
		}
		back, err := Unmarshal(b)
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

// Property: transpose twice is the identity view.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(rows8, cols8 uint8) bool {
		rows := int(rows8%9) + 1
		cols := int(cols8%9) + 1
		a := NewFloat(rows, cols)
		for i := range a.Base.F {
			a.Base.F[i] = float64(i)
		}
		t1, err := a.Transpose(nil)
		if err != nil {
			return false
		}
		t2, err := t1.Transpose(nil)
		if err != nil {
			return false
		}
		eq, err := Equal(a, t2)
		return err == nil && eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
