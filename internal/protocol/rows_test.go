package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// everyKind is one term of every kind EncodeTerm accepts, with the
// values a text rendering gets wrong.
func everyKind() []rdf.Term {
	a, _ := array.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	return []rdf.Term{
		rdf.IRI("http://ex/a"),
		rdf.IRI(""),
		rdf.Blank("b1"),
		rdf.String{Val: "plain"},
		rdf.String{Val: "say \"hej\"\nthen leave", Lang: "sv"},
		rdf.Integer(-42),
		rdf.Integer(math.MinInt64),
		rdf.Integer(math.MaxInt64),
		rdf.Float(1e-7),
		rdf.Float(math.NaN()),
		rdf.Float(math.Inf(-1)),
		rdf.Boolean(true),
		rdf.Boolean(false),
		rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 123456789, time.FixedZone("", 3600))},
		rdf.Typed{Lexical: "a\"b\\c", Datatype: rdf.IRI("http://ex/dt")},
		rdf.NewArray(a),
	}
}

// arrayViews is every shape of array a result cell can hold: int and
// float, whole resident, strided slice, and proxied through a store.
func arrayViews(t testing.TB) []rdf.Term {
	t.Helper()
	ints, _ := array.FromInts([]int64{1, -2, 3, math.MinInt64, 5, math.MaxInt64}, 2, 3)
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i) / 3
	}
	floats, _ := array.FromFloats(data, 8, 8)
	strided, err := floats.Deref([]array.Range{array.SpanStep(1, 8, 3), array.SpanStep(0, 8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	column, err := ints.Deref([]array.Range{array.All(), array.Idx(1)})
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory()
	id, err := mem.Store(floats, 5)
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := mem.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	proxiedSlice, err := proxied.Deref([]array.Range{array.Span(2, 7), array.SpanStep(1, 8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var out []rdf.Term
	for _, a := range []*array.Array{ints, floats, strided, column, proxied, proxiedSlice} {
		out = append(out, rdf.NewArray(a))
	}
	return out
}

// rowKinds is everyKind plus the values a text rendering gets wrong and
// every array view.
func rowKinds(t testing.TB) []rdf.Term {
	return append(append(everyKind(),
		rdf.Float(math.Inf(1)),
		rdf.Float(math.Copysign(0, -1)),
		rdf.Float(0),
		rdf.DateTime{T: time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("", -(9*3600+30*60)))},
		rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 0, time.UTC)},
		rdf.Blank("b2"),
		rdf.String{Val: ""},
		rdf.Typed{Lexical: "tab\there \"quoted\" \\ \n", Datatype: rdf.XSDDecimal},
	), arrayViews(t)...)
}

// identical reports whether a and b are the same term down to what the
// wire must keep: an array's element type, shape and element bits (NaN
// included), a dateTime's offset as well as its instant.
func identical(a, b rdf.Term) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case a.Kind() == rdf.KindArray && b.Kind() == rdf.KindArray:
		x, errx := array.AppendMarshal(nil, a.(rdf.Array).A)
		y, erry := array.AppendMarshal(nil, b.(rdf.Array).A)
		return errx == nil && erry == nil && bytes.Equal(x, y)
	case a.Kind() == rdf.KindDateTime && b.Kind() == rdf.KindDateTime:
		return a.(rdf.DateTime).T.Format(time.RFC3339Nano) == b.(rdf.DateTime).T.Format(time.RFC3339Nano)
	}
	return a.Kind() == b.Kind() && a.Key() == b.Key()
}

// viaTerm is what the JSON term codec makes of t — what the table must
// agree with.
func viaTerm(t testing.TB, term rdf.Term) rdf.Term {
	t.Helper()
	wt, err := EncodeTerm(term)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTerm(wt)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func roundTrip(t testing.TB, rows [][]rdf.Term, width int) [][]rdf.Term {
	t.Helper()
	blob, err := EncodeRows(rows, width)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRowsRoundTrip: for every kind, a cell that went through a table
// equals the term DecodeTerm(EncodeTerm(t)) gives, and each distinct
// term crosses once.
func TestRowsRoundTrip(t *testing.T) {
	terms := rowKinds(t)
	// Three cells a row: the term, unbound, and the term again — the
	// second time, and in the next row, it is a dictionary reference.
	var rows [][]rdf.Term
	for _, term := range terms {
		rows = append(rows, []rdf.Term{term, nil, term}, []rdf.Term{term, nil})
	}
	blob, err := EncodeRows(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	// NaN is its own entry once; -0 and 0 are two.
	if ndict := binary.LittleEndian.Uint32(blob); int(ndict) != len(terms) {
		t.Errorf("dictionary holds %d entries, want %d", ndict, len(terms))
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i, row := range got {
		want := viaTerm(t, terms[i/2])
		last := want // the short row's missing cell is unbound
		if i%2 == 1 {
			last = nil
		}
		if len(row) != 3 || !identical(row[0], want) || row[1] != nil || !identical(row[2], last) {
			t.Errorf("row %d = %v, want [%v <nil> %v]", i, row, want, last)
		}
	}

	// A solution of no variables (SELECT * over an empty pattern) still
	// counts its rows; a table of no rows is empty whatever its width.
	if got := roundTrip(t, [][]rdf.Term{{}, {}, {}}, 0); len(got) != 3 || len(got[0]) != 0 {
		t.Errorf("three zero-width rows came back as %v", got)
	}
	if got := roundTrip(t, nil, 4); len(got) != 0 {
		t.Errorf("no rows came back as %v", got)
	}
	if got := roundTrip(t, [][]rdf.Term{{nil, nil}}, 2); len(got) != 1 || got[0][0] != nil || got[0][1] != nil {
		t.Errorf("an all-unbound row came back as %v", got)
	}
}

// TestDecodeRowsCopiesArraysOnce: an array cell costs its elements once
// on the decoding side — unmarshalled straight from the table, not from
// a copy of it.
func TestDecodeRowsCopiesArraysOnce(t *testing.T) {
	data := make([]float64, 4096)
	a, _ := array.FromFloats(data, len(data))
	blob, err := EncodeRows([][]rdf.Term{{rdf.NewArray(a), rdf.IRI("http://ex/run")}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		if _, err := DecodeRows(blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / 10; perDecode > 36<<10 {
		t.Errorf("decoding a %d-byte table allocates %d bytes", len(blob), perDecode)
	}
}

// idTable encodes rows of g's IDs as a row table width cells wide, each
// cell carrying its own term.
func idTable(t testing.TB, g *rdf.Graph, width int, rows [][]rdf.ID) []byte {
	t.Helper()
	term := func(id rdf.ID) (rdf.ID, rdf.Term, error) { return id, g.TermOf(id), nil }
	blob, n, err := AppendIDRows(nil, width, term, func(yield func(row []rdf.ID) bool) {
		for _, row := range rows {
			if !yield(row) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("encoded %d rows, want %d", n, len(rows))
	}
	return blob
}

// collect reads blob with EachRow, copying each row out.
func collect(blob []byte) (rows [][]rdf.Term, width int, err error) {
	err = EachRow(blob, func(_, w int) error { width = w; return nil }, func(row []rdf.Term) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	return rows, width, err
}

// TestTriplesRoundTrip: triples of every term kind, encoded from IDs at
// each of the eight wildcard masks as a scan answers them — the wildcard
// positions only, in s, p, o order — are the bytes EncodeRows writes for
// the same terms, and read back as DecodeTerm(EncodeTerm(t)) gives each
// term, every distinct term sent once.
func TestTriplesRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	subjects := []rdf.ID{g.Intern(rdf.IRI("http://ex/s")), g.Intern(rdf.Blank("b9"))}
	pred := g.Intern(rdf.IRI("http://ex/p"))
	var triples [][3]rdf.ID
	for i, term := range everyKind() {
		// Twice each: the second row must reuse the dictionary entry.
		for range 2 {
			triples = append(triples, [3]rdf.ID{subjects[i%2], pred, g.Intern(term)})
		}
	}
	for mask := range 8 {
		var open []int
		for c := range 3 {
			if mask&(1<<c) != 0 {
				open = append(open, c)
			}
		}
		matches := triples
		if len(open) == 0 {
			matches = triples[:1] // a ground pattern matches at most once
		}
		var ids [][]rdf.ID
		var terms [][]rdf.Term
		distinct := map[rdf.ID]bool{}
		for _, tr := range matches {
			var row []rdf.ID
			var want []rdf.Term
			for _, c := range open {
				row, want = append(row, tr[c]), append(want, g.TermOf(tr[c]))
				distinct[tr[c]] = true
			}
			ids, terms = append(ids, row), append(terms, want)
		}
		blob := idTable(t, g, len(open), ids)
		viaTerms, err := EncodeRows(terms, len(open))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, viaTerms) {
			t.Errorf("mask %03b: the ID table differs from EncodeRows' for the same terms", mask)
		}
		if ndict := binary.LittleEndian.Uint32(blob); int(ndict) != len(distinct) {
			t.Errorf("mask %03b: dictionary holds %d entries, want %d", mask, ndict, len(distinct))
		}
		got, width, err := collect(blob)
		if err != nil || width != len(open) || len(got) != len(matches) {
			t.Fatalf("mask %03b: %d rows %d wide, %v; want %d rows %d wide", mask, len(got), width, err, len(matches), len(open))
		}
		for i, row := range got {
			for c, cell := range row {
				if want := viaTerm(t, terms[i][c]); !identical(cell, want) {
					t.Errorf("mask %03b row %d cell %d: %v, want %v", mask, i, c, cell, want)
				}
			}
		}
	}
}

// TestTriplesGroundAndEmpty: a width-0 table holds a ground match or
// none, a scan with no matches is an empty table of its width, and emit
// can stop the replay.
func TestTriplesGroundAndEmpty(t *testing.T) {
	g := rdf.NewGraph()
	a := g.Intern(rdf.IRI("http://ex/a"))
	for _, tc := range []struct {
		name         string
		width, nrows int
	}{{"ground triple present", 0, 1}, {"ground triple absent", 0, 0}, {"empty scan", 3, 0}} {
		blob := idTable(t, g, tc.width, make([][]rdf.ID, tc.nrows))
		rows, width, err := collect(blob)
		if err != nil || width != tc.width || len(rows) != tc.nrows {
			t.Errorf("%s: %d rows %d wide, %v", tc.name, len(rows), width, err)
		}
		for _, row := range rows {
			if len(row) != 0 {
				t.Errorf("%s: a ground row of %d cells", tc.name, len(row))
			}
		}
	}
	many := idTable(t, g, 1, [][]rdf.ID{{a}, {a}, {a}})
	seen := 0
	if err := EachRow(many, func(int, int) error { return nil }, func([]rdf.Term) bool { seen++; return false }); err != nil || seen != 1 {
		t.Errorf("early stop: %d rows, err %v", seen, err)
	}
	// start sees the shape before any row, and its error is the answer.
	refuse := errors.New("not this shape")
	if err := EachRow(many, func(n, w int) error {
		if n != 3 || w != 1 {
			t.Errorf("start saw %d rows %d wide, want 3 and 1", n, w)
		}
		return refuse
	}, func([]rdf.Term) bool { seen++; return true }); err != refuse || seen != 1 {
		t.Errorf("refused shape: %v after %d rows", err, seen-1)
	}
}

// TestDecodeRowsHostile: whatever the bytes, an error — not a panic, not
// an allocation sized by a count they cannot back.
func TestDecodeRowsHostile(t *testing.T) {
	a, _ := array.FromInts([]int64{7, 8}, 2)
	good, err := EncodeRows([][]rdf.Term{
		{rdf.IRI("http://ex/a"), nil, rdf.NewArray(a)},
		{rdf.IRI("http://ex/a"), rdf.Integer(3), nil},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRows(good); err != nil {
		t.Fatal(err)
	}
	header := func(ndict, nrows, width uint32, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, ndict)
		b = binary.LittleEndian.AppendUint32(b, nrows)
		return append(binary.LittleEndian.AppendUint32(b, width), payload...)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	arrayCell := func(body ...byte) []byte {
		return append(binary.LittleEndian.AppendUint64([]byte{1, kindArray}, uint64(len(body))), body...)
	}
	cases := map[string][]byte{
		"empty":                {},
		"short header":         header(0, 0, 0)[:11],
		"index out of range":   header(1, 2, 1, 1, kindBool, 1, 3),
		"index before entries": header(0, 1, 1, 2),
		"more terms":           edit(func(b []byte) []byte { b[0] = 1; return b }),
		"fewer terms":          edit(func(b []byte) []byte { b[0] = 4; return b }),
		"stray bytes":          edit(func(b []byte) []byte { return append(b, 0) }),
		"unknown kind":         header(1, 1, 1, 1, 99, 0),
		"bad dateTime":         header(1, 1, 1, append([]byte{1, kindDateTime, 5}, "later"...)...),
		"bad array type":       header(1, 1, 1, arrayCell(7, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)...),
		"array body too short": header(1, 1, 1, arrayCell(1, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)...),
		"array length past end": header(1, 1, 1,
			append(binary.LittleEndian.AppendUint64([]byte{1, kindArray}, 1<<62), 1, 1, 0)...),
		"zero-width row with a cell": header(0, 1, 0, 1),
		"huge row count":             header(0, 1<<31, 1, 0),
		"huge width":                 header(0, 1, 1<<31, 0),
		"huge rows of width 0":       header(0, 1<<31, 0, 0),
		"huge dictionary":            header(1<<31, 1, 1, 1, kindBool, 1),
		"huge ground count":          header(0, 1<<31, 0),
		"huge ground terms":          header(1<<31, 0, 0),
	}
	for n := 1; n < len(good); n++ {
		cases[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	for name, b := range cases {
		if rows, err := DecodeRows(b); err == nil {
			t.Errorf("%s: decoded %v without error", name, rows)
		}
	}
	// 2^31 announced rows, cells or terms would be tens of GiB, also in a
	// table of width 0, a fully-bound scan's answer. Bytes, not
	// an allocation count, so the race detector's bookkeeping does not
	// move the reading.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range []string{"huge row count", "huge width", "huge rows of width 0", "huge dictionary", "huge ground count", "huge ground terms"} {
		_, _ = DecodeRows(cases[name])
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 64<<10 {
		t.Errorf("hostile counts cost %d bytes", spent)
	}
}

func FuzzDecodeRows(f *testing.F) {
	terms := rowKinds(f)
	for _, term := range terms {
		blob, err := EncodeRows([][]rdf.Term{{term, nil, term}}, 3)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	rows := make([][]rdf.Term, len(terms))
	for i := range terms {
		rows[i] = []rdf.Term{terms[i], terms[len(terms)-1-i]}
	}
	// Write tables as OpTriples carries them: width 3, blank subjects and
	// objects, array and NaN objects.
	p, arr := rdf.IRI("http://ex/p"), arrayViews(f)[0]
	writes := [][]rdf.Term{
		{rdf.Blank("co1-1"), p, rdf.Blank("co1-2")},
		{rdf.IRI("http://ex/s"), p, arr},
		{rdf.Blank("co1-2"), p, rdf.Float(math.NaN())},
		{rdf.Blank("co1-2"), p, arr},
	}
	// Scan answers: one cell per wildcard of a pattern, a ground match
	// of width 0.
	scans := [][][]rdf.Term{{{}}, {{rdf.IRI("http://ex/s")}}, {{p, arr}, {p, rdf.Blank("co1-2")}}}
	for _, tc := range []struct {
		rows  [][]rdf.Term
		width int
	}{{rows, 2}, {[][]rdf.Term{{}, {}}, 0}, {nil, 3}, {writes, 3}, {writes[2:3], 3}, {scans[0], 0}, {scans[1], 1}, {scans[2], 2}} {
		blob, err := EncodeRows(tc.rows, tc.width)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		rows, err := DecodeRows(blob)
		if err != nil {
			return
		}
		cells := 0
		for _, row := range rows {
			cells += len(row)
		}
		if len(rows) > len(blob) || cells > len(blob) {
			t.Fatalf("%d rows of %d cells out of %d bytes", len(rows), cells, len(blob))
		}
		// What decodes re-encodes to a table that decodes the same.
		width := 0
		if len(rows) > 0 {
			width = len(rows[0])
		}
		again := roundTrip(t, rows, width)
		for i := range rows {
			for c := range rows[i] {
				if !identical(rows[i][c], again[i][c]) {
					t.Fatalf("cell %d,%d: %v re-encoded as %v", i, c, rows[i][c], again[i][c])
				}
			}
		}
	})
}

// TestGuardEachRowAllocsPerRow: the dictionary is decoded once, rows
// replay for free.
func TestGuardEachRowAllocsPerRow(t *testing.T) {
	g := rdf.NewGraph()
	var rows [][]rdf.ID
	for i := 0; i < 1000; i++ {
		rows = append(rows, []rdf.ID{g.Intern(rdf.IRI(fmt.Sprintf("http://ex/d%d", i))), g.Intern(rdf.Integer(1990 + i%30))})
	}
	blob := idTable(t, g, 2, rows)
	n := 0
	allocs := testing.AllocsPerRun(5, func() {
		_ = EachRow(blob, func(int, int) error { return nil }, func([]rdf.Term) bool { n++; return true })
	})
	// 1 000 rows over 1 030 distinct terms: one box per term, the texts
	// sharing the table's memory and the term list pooled (1 031 with a
	// list made per table).
	if allocs > 1030+4 {
		t.Errorf("%.0f allocations for 1000 rows over 1030 distinct terms", allocs)
	}
	t.Logf("%d-byte table, %.0f allocations per decode", len(blob), allocs)
}

// TestEachRowRecyclesItsList: EachRow's pooled term list holds no term
// once the call returns, however it returns — at the end, when emit
// stops it, or at any malformed-table exit — so the pool pins no blob;
// and a well-formed table decoded right after each bad one reads exactly
// as it does alone.
func TestEachRowRecyclesItsList(t *testing.T) {
	g := rdf.NewGraph()
	var rows [][]rdf.ID
	for _, term := range everyKind() {
		for range 2 {
			rows = append(rows, []rdf.ID{g.Intern(term)})
		}
	}
	good := idTable(t, g, 1, rows)
	decode := func(b []byte, stop int) (cells []rdf.Term, err error) {
		err = EachRow(b, func(int, int) error { return nil }, func(row []rdf.Term) bool {
			cells = append(cells, row[0])
			return len(cells) != stop
		})
		return cells, err
	}
	pinned := func() bool {
		list := termLists.Get().(*[]rdf.Term)
		defer termLists.Put(list)
		return slices.ContainsFunc((*list)[:cap(*list)], func(t rdf.Term) bool { return t != nil })
	}
	want, err := decode(good, -1)
	if err != nil || len(want) != len(rows) {
		t.Fatalf("good table: %d rows, %v", len(want), err)
	}
	if pinned() {
		t.Fatal("a decoded table left terms in the pooled list")
	}
	if got, err := decode(good, 3); err != nil || len(got) != 3 || pinned() {
		t.Fatalf("stopped after %d rows (%v); list pinned: %v", len(got), err, pinned())
	}
	header := func(ndict, nrows uint32, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, ndict), nrows)
		return append(binary.LittleEndian.AppendUint32(b, 1), payload...)
	}
	withDict := func(d uint32) []byte {
		b := slices.Clone(good)
		binary.LittleEndian.PutUint32(b, d)
		return b
	}
	ndict := binary.LittleEndian.Uint32(good)
	bad := map[string][]byte{
		"index out of range": header(1, 2, 1, kindBool, 1, 9),
		"more terms":         withDict(ndict - 1),
		"fewer terms":        withDict(ndict + 1),
		"unknown kind":       header(2, 2, 1, kindBool, 1, 1, 99, 0),
		"stray bytes":        append(slices.Clone(good), 1),
	}
	for n := rowsHeader + 1; n < len(good); n++ {
		bad[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	for name, b := range bad {
		if _, err := decode(b, -1); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want a malformed-table error", name, err)
		}
		if pinned() {
			t.Fatalf("%s: the bad table left terms in the pooled list", name)
		}
		got, err := decode(good, -1)
		if err != nil || len(got) != len(want) {
			t.Fatalf("after %s: %d rows, %v", name, len(got), err)
		}
		for i := range got {
			if !identical(got[i], want[i]) {
				t.Fatalf("after %s: row %d cell %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}
