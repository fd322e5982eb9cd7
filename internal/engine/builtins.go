package engine

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// builtin is one entry of the built-in function table: SPARQL 1.1
// built-ins plus the SciSPARQL array library (§4.1.3) and the
// second-order functions MAP and CONDENSE (§4.3.1).
type builtin struct {
	min, max int // max -1 = variadic
	fn       func(c *evalCtx, args []rdf.Term) (rdf.Term, error)
}

var builtins map[string]builtin

func init() {
	builtins = map[string]builtin{
		// --- term inspection / construction ---
		"str":       {1, 1, bStr},
		"lang":      {1, 1, bLang},
		"datatype":  {1, 1, bDatatype},
		"iri":       {1, 1, bIRI},
		"uri":       {1, 1, bIRI},
		"isiri":     {1, 1, bIsIRI},
		"isuri":     {1, 1, bIsIRI},
		"isblank":   {1, 1, bIsBlank},
		"isliteral": {1, 1, bIsLiteral},
		"isnumeric": {1, 1, bIsNumeric},
		"isarray":   {1, 1, bIsArray},
		"sameterm":  {2, 2, bSameTerm},

		// --- numeric scalars ---
		"abs": {1, 1, numeric1(math.Abs, func(i int64) (int64, bool) {
			if i < 0 {
				return -i, true
			}
			return i, true
		})},
		"round": {1, 1, numeric1(math.Round, ident)},
		"ceil":  {1, 1, numeric1(math.Ceil, ident)},
		"floor": {1, 1, numeric1(math.Floor, ident)},

		// --- strings ---
		"strlen":    {1, 1, bStrlen},
		"ucase":     {1, 1, strFn(strings.ToUpper)},
		"lcase":     {1, 1, strFn(strings.ToLower)},
		"contains":  {2, 2, strPred(strings.Contains)},
		"strstarts": {2, 2, strPred(strings.HasPrefix)},
		"strends":   {2, 2, strPred(strings.HasSuffix)},
		"substr":    {2, 3, bSubstr},
		"concat":    {0, -1, bConcat},
		"regex":     {2, 3, bRegex},
		"replace":   {3, 3, bReplace},

		// --- date/time ---
		"now":     {0, 0, bNow},
		"year":    {1, 1, dtField(func(t time.Time) int { return t.Year() })},
		"month":   {1, 1, dtField(func(t time.Time) int { return int(t.Month()) })},
		"day":     {1, 1, dtField(func(t time.Time) int { return t.Day() })},
		"hours":   {1, 1, dtField(func(t time.Time) int { return t.Hour() })},
		"minutes": {1, 1, dtField(func(t time.Time) int { return t.Minute() })},
		"seconds": {1, 1, dtField(func(t time.Time) int { return t.Second() })},

		// --- SciSPARQL array library (§4.1.3) ---
		"adims":  {1, 1, bADims},
		"ndims":  {1, 1, bNDims},
		"acount": {1, 1, bACount},
		"asum":   {1, 2, arrayAgg(array.AggSum)},
		"aavg":   {1, 2, arrayAgg(array.AggAvg)},
		"amin":   {1, 2, arrayAgg(array.AggMin)},
		"amax":   {1, 2, arrayAgg(array.AggMax)},

		"array":     {1, -1, bArray},
		"iota":      {1, 1, bIota},
		"afill":     {2, -1, bAFill},
		"transpose": {1, -1, bTranspose},
		"reshape":   {2, -1, bReshape},
		"aconcat":   {2, -1, bAConcat},

		// --- second-order functions (§4.3.1) ---
		"map":      {2, -1, bMap},
		"condense": {2, 2, bCondense},
		"apply":    {1, -1, bApply},
	}
}

func ident(i int64) (int64, bool) { return i, true }

func bStr(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	switch v := args[0].(type) {
	case rdf.IRI:
		return rdf.String{Val: string(v)}, nil
	case rdf.String:
		return rdf.String{Val: v.Val}, nil
	case nil:
		return nil, errf("str of unbound")
	default:
		s := v.String()
		s = strings.Trim(s, `"`)
		return rdf.String{Val: s}, nil
	}
}

func bLang(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	if s, ok := args[0].(rdf.String); ok {
		return rdf.String{Val: s.Lang}, nil
	}
	return rdf.String{Val: ""}, nil
}

func bDatatype(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	switch v := args[0].(type) {
	case rdf.Integer:
		return rdf.XSDInteger, nil
	case rdf.Float:
		return rdf.XSDDouble, nil
	case rdf.Boolean:
		return rdf.XSDBoolean, nil
	case rdf.String:
		return rdf.XSDString, nil
	case rdf.DateTime:
		return rdf.XSDDateTime, nil
	case rdf.Typed:
		return v.Datatype, nil
	case rdf.Array:
		return rdf.SSDMArray, nil
	default:
		return nil, errf("datatype of %v", termKindOf(args[0]))
	}
}

func bIRI(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	switch v := args[0].(type) {
	case rdf.IRI:
		return v, nil
	case rdf.String:
		return rdf.IRI(v.Val), nil
	default:
		return nil, errf("iri() of %v", termKindOf(args[0]))
	}
}

func termPred(f func(rdf.Term) bool) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
		return rdf.Boolean(f(args[0])), nil
	}
}

var (
	bIsIRI   = termPred(func(t rdf.Term) bool { _, ok := t.(rdf.IRI); return ok })
	bIsBlank = termPred(func(t rdf.Term) bool { _, ok := t.(rdf.Blank); return ok })
	bIsArray = termPred(func(t rdf.Term) bool { _, ok := t.(rdf.Array); return ok })
)

func bIsLiteral(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	switch args[0].(type) {
	case rdf.String, rdf.Integer, rdf.Float, rdf.Boolean, rdf.DateTime, rdf.Typed:
		return rdf.Boolean(true), nil
	default:
		return rdf.Boolean(false), nil
	}
}

func bIsNumeric(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	_, ok := rdf.Numeric(args[0])
	if _, isBool := args[0].(rdf.Boolean); isBool {
		ok = false
	}
	return rdf.Boolean(ok), nil
}

func bSameTerm(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	if args[0] == nil || args[1] == nil {
		return nil, errf("sameterm with unbound")
	}
	return rdf.Boolean(rdf.SameTerm(args[0], args[1])), nil
}

func numeric1(ff func(float64) float64, fi func(int64) (int64, bool)) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
		n, ok := rdf.Numeric(args[0])
		if !ok {
			return nil, errf("numeric function over %v", termKindOf(args[0]))
		}
		if n.T == array.Int {
			if r, ok := fi(n.I); ok {
				return rdf.Integer(r), nil
			}
		}
		return rdf.Float(ff(n.Float())), nil
	}
}

func asString(t rdf.Term) (string, error) {
	if s, ok := t.(rdf.String); ok {
		return s.Val, nil
	}
	return "", errf("expected string, got %v", termKindOf(t))
}

func bStrlen(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	s, err := asString(args[0])
	if err != nil {
		return nil, err
	}
	return rdf.Integer(len([]rune(s))), nil
}

func strFn(f func(string) string) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
		s, err := asString(args[0])
		if err != nil {
			return nil, err
		}
		return rdf.String{Val: f(s)}, nil
	}
}

func strPred(f func(string, string) bool) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
		a, err := asString(args[0])
		if err != nil {
			return nil, err
		}
		b, err := asString(args[1])
		if err != nil {
			return nil, err
		}
		return rdf.Boolean(f(a, b)), nil
	}
}

func bSubstr(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	s, err := asString(args[0])
	if err != nil {
		return nil, err
	}
	start, ok := rdf.Numeric(args[1])
	if !ok {
		return nil, errf("substr start must be numeric")
	}
	runes := []rune(s)
	lo := int(start.Intval()) - 1 // SPARQL substr is 1-based
	if lo < 0 {
		lo = 0
	}
	if lo > len(runes) {
		lo = len(runes)
	}
	hi := len(runes)
	if len(args) == 3 {
		n, ok := rdf.Numeric(args[2])
		if !ok {
			return nil, errf("substr length must be numeric")
		}
		hi = lo + int(n.Intval())
		if hi > len(runes) {
			hi = len(runes)
		}
		if hi < lo {
			hi = lo
		}
	}
	return rdf.String{Val: string(runes[lo:hi])}, nil
}

func bConcat(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	var sb strings.Builder
	for _, a := range args {
		switch v := a.(type) {
		case rdf.String:
			sb.WriteString(v.Val)
		case nil:
			return nil, errf("concat of unbound")
		default:
			sb.WriteString(strings.Trim(v.String(), `"`))
		}
	}
	return rdf.String{Val: sb.String()}, nil
}

func compileRegex(pattern string, flags rdf.Term) (*regexp.Regexp, error) {
	p := pattern
	if flags != nil {
		f, err := asString(flags)
		if err != nil {
			return nil, err
		}
		if strings.Contains(f, "i") {
			p = "(?i)" + p
		}
		if strings.Contains(f, "s") {
			p = "(?s)" + p
		}
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, errf("bad regex %q: %v", pattern, err)
	}
	return re, nil
}

func bRegex(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	s, err := asString(args[0])
	if err != nil {
		return nil, err
	}
	pat, err := asString(args[1])
	if err != nil {
		return nil, err
	}
	var flags rdf.Term
	if len(args) == 3 {
		flags = args[2]
	}
	re, err := compileRegex(pat, flags)
	if err != nil {
		return nil, err
	}
	return rdf.Boolean(re.MatchString(s)), nil
}

func bReplace(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	s, err := asString(args[0])
	if err != nil {
		return nil, err
	}
	pat, err := asString(args[1])
	if err != nil {
		return nil, err
	}
	rep, err := asString(args[2])
	if err != nil {
		return nil, err
	}
	re, err := compileRegex(pat, nil)
	if err != nil {
		return nil, err
	}
	return rdf.String{Val: re.ReplaceAllString(s, rep)}, nil
}

func bNow(_ *evalCtx, _ []rdf.Term) (rdf.Term, error) {
	return rdf.DateTime{T: time.Now()}, nil
}

func dtField(f func(time.Time) int) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
		dt, ok := args[0].(rdf.DateTime)
		if !ok {
			return nil, errf("date/time function over %v", termKindOf(args[0]))
		}
		return rdf.Integer(int64(f(dt.T))), nil
	}
}

// --- array built-ins ---

func asArray(t rdf.Term) (*array.Array, error) {
	if a, ok := t.(rdf.Array); ok {
		return a.A, nil
	}
	return nil, errf("expected array, got %v", termKindOf(t))
}

func bADims(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[0])
	if err != nil {
		return nil, err
	}
	return rdf.NewArray(a.Dims()), nil
}

func bNDims(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[0])
	if err != nil {
		return nil, err
	}
	return rdf.Integer(int64(a.NDims())), nil
}

func bACount(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[0])
	if err != nil {
		return nil, err
	}
	return rdf.Integer(int64(a.Count())), nil
}

// arrayAgg makes asum/aavg/amin/amax: over the whole array, or along a
// 1-based dimension when a second argument is given (§4.1.5).
func arrayAgg(op array.AggOp) func(*evalCtx, []rdf.Term) (rdf.Term, error) {
	return func(c *evalCtx, args []rdf.Term) (rdf.Term, error) {
		a, err := asArray(args[0])
		if err != nil {
			return nil, err
		}
		if len(args) == 2 {
			d, ok := rdf.Numeric(args[1])
			if !ok {
				return nil, errf("aggregation dimension must be numeric")
			}
			res, err := a.AggregateAlongCtx(c.matchCtx(), op, int(d.Intval())-1)
			if err != nil {
				return nil, c.kernelErr(err)
			}
			return rdf.NewArray(res), nil
		}
		n, err := a.AggregateCtx(c.matchCtx(), op)
		if err != nil {
			return nil, c.kernelErr(err)
		}
		return rdf.FromNumber(n), nil
	}
}

// bArray builds an array from scalars (a vector) or from arrays of
// equal shape (stacked along a new leading dimension).
func bArray(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	if a0, ok := args[0].(rdf.Array); ok {
		shape := a0.A.Shape
		parts := make([]*array.Array, len(args))
		for i, t := range args {
			at, ok := t.(rdf.Array)
			if !ok || !array.ShapeEqual(at.A.Shape, shape) {
				return nil, errf("array(): mixed shapes in stack")
			}
			parts[i] = at.A
		}
		out, err := array.Build(array.Float, append([]int{len(parts)}, shape...),
			func(idx []int) (array.Number, error) {
				return parts[idx[0]].At(idx[1:]...)
			})
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.NewArray(out), nil
	}
	nums := make([]array.Number, len(args))
	for i, t := range args {
		n, ok := rdf.Numeric(t)
		if !ok {
			return nil, errf("array(): element %d is %v", i+1, termKindOf(t))
		}
		nums[i] = n
	}
	v, err := array.Vector(nums...)
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(v), nil
}

// bIota returns the integer vector [1..n].
func bIota(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	n, ok := rdf.Numeric(args[0])
	if !ok || n.Intval() < 1 {
		return nil, errf("iota(n) needs a positive count")
	}
	data := make([]int64, n.Intval())
	for i := range data {
		data[i] = int64(i) + 1
	}
	v, err := array.FromInts(data, len(data))
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(v), nil
}

func intShape(args []rdf.Term) ([]int, error) {
	shape := make([]int, len(args))
	for i, t := range args {
		n, ok := rdf.Numeric(t)
		if !ok {
			return nil, errf("dimension %d is %v", i+1, termKindOf(t))
		}
		shape[i] = int(n.Intval())
	}
	return shape, nil
}

func bAFill(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	v, ok := rdf.Numeric(args[0])
	if !ok {
		return nil, errf("afill value must be numeric")
	}
	shape, err := intShape(args[1:])
	if err != nil {
		return nil, err
	}
	et := array.Float
	if v.T == array.Int {
		et = array.Int
	}
	out, err := array.Build(et, shape, func([]int) (array.Number, error) { return v, nil })
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(out), nil
}

func bTranspose(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[0])
	if err != nil {
		return nil, err
	}
	var perm []int
	if len(args) > 1 {
		p, err := intShape(args[1:])
		if err != nil {
			return nil, err
		}
		perm = make([]int, len(p))
		for i, d := range p {
			perm[i] = d - 1
		}
	}
	out, err := a.Transpose(perm)
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(out), nil
}

func bReshape(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[0])
	if err != nil {
		return nil, err
	}
	shape, err := intShape(args[1:])
	if err != nil {
		return nil, err
	}
	out, err := a.Reshape(shape...)
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(out), nil
}

func bAConcat(_ *evalCtx, args []rdf.Term) (rdf.Term, error) {
	parts := make([]*array.Array, len(args))
	for i, t := range args {
		a, err := asArray(t)
		if err != nil {
			return nil, err
		}
		parts[i] = a
	}
	out, err := array.Concat(parts...)
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.NewArray(out), nil
}

// bMap is the second-order MAP (§4.3.1): applies a function value
// elementwise across one or more same-shaped arrays.
func bMap(c *evalCtx, args []rdf.Term) (rdf.Term, error) {
	arrays := make([]*array.Array, 0, len(args)-1)
	for _, t := range args[1:] {
		a, err := asArray(t)
		if err != nil {
			return nil, err
		}
		arrays = append(arrays, a)
	}
	fa, err := c.resolveFuncValue(args[0])
	if err != nil {
		return nil, err
	}
	terms := make([]rdf.Term, len(arrays))
	mapper := func(nums []array.Number) (array.Number, error) {
		for i, n := range nums {
			terms[i] = rdf.FromNumber(n)
		}
		res, err := fa.call(terms)
		if err != nil {
			return array.Number{}, err
		}
		n, ok := rdf.Numeric(res)
		if !ok {
			return array.Number{}, fmt.Errorf("map: function produced %v", termKindOf(res))
		}
		return n, nil
	}
	out, err := array.MapCtx(c.matchCtx(), mapper, arrays...)
	if err != nil {
		return nil, c.kernelErr(err)
	}
	return rdf.NewArray(out), nil
}

// bCondense is the second-order CONDENSE (§4.3.1): folds an array into
// a scalar with a binary function value.
func bCondense(c *evalCtx, args []rdf.Term) (rdf.Term, error) {
	a, err := asArray(args[1])
	if err != nil {
		return nil, err
	}
	fa, err := c.resolveFuncValue(args[0])
	if err != nil {
		return nil, err
	}
	// The accumulator travels as the term the function last returned, so
	// a function returning one of its arguments (a max, a min) boxes no
	// new term for it; it is boxed again only when the fold hands back a
	// different value.
	var accT rdf.Term
	var accN array.Number
	pair := make([]rdf.Term, 2)
	reducer := func(acc, v array.Number) (array.Number, error) {
		if accT == nil || acc != accN {
			accT = rdf.FromNumber(acc)
		}
		pair[0], pair[1] = accT, rdf.FromNumber(v)
		res, err := fa.call(pair)
		if err != nil {
			return array.Number{}, err
		}
		n, ok := rdf.Numeric(res)
		if !ok {
			return array.Number{}, fmt.Errorf("condense: function produced %v", termKindOf(res))
		}
		accT, accN = res, n
		if _, isBool := res.(rdf.Boolean); isBool {
			accT = nil // passed on as the number it counts as, like FromNumber
		}
		return n, nil
	}
	n, err := array.CondenseCtx(c.matchCtx(), reducer, a)
	if err != nil {
		return nil, c.kernelErr(err)
	}
	return rdf.FromNumber(n), nil
}

// bApply applies a function value to explicit arguments.
func bApply(c *evalCtx, args []rdf.Term) (rdf.Term, error) {
	fa, err := c.resolveFuncValue(args[0])
	if err != nil {
		return nil, err
	}
	return fa.call(args[1:])
}

// registerStdlib installs the default foreign functions: a slice of Go's
// math library interfaced per §4.4 (foreign functions wrapping an
// existing computational library).
func registerStdlib(r *Registry) {
	mathFn := func(name string, f func(float64) float64) {
		r.RegisterForeign(name, 1, 1, func(args []rdf.Term) (rdf.Term, error) {
			n, ok := rdf.Numeric(args[0])
			if !ok {
				return nil, fmt.Errorf("%s over %v", name, termKindOf(args[0]))
			}
			return rdf.Float(f(n.Float())), nil
		})
	}
	mathFn("sqrt", math.Sqrt)
	mathFn("exp", math.Exp)
	mathFn("ln", math.Log)
	mathFn("log10", math.Log10)
	mathFn("sin", math.Sin)
	mathFn("cos", math.Cos)
	mathFn("tan", math.Tan)
	r.RegisterForeign("pow", 2, 2, func(args []rdf.Term) (rdf.Term, error) {
		a, ok1 := rdf.Numeric(args[0])
		b, ok2 := rdf.Numeric(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("pow over non-numeric arguments")
		}
		return rdf.Float(math.Pow(a.Float(), b.Float())), nil
	})
	r.RegisterForeign("atan2", 2, 2, func(args []rdf.Term) (rdf.Term, error) {
		a, ok1 := rdf.Numeric(args[0])
		b, ok2 := rdf.Numeric(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("atan2 over non-numeric arguments")
		}
		return rdf.Float(math.Atan2(a.Float(), b.Float())), nil
	})
}
