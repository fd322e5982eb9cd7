package engine

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func selectResults() *Results {
	return &Results{
		Form: sparql.FormSelect,
		Vars: []string{"s", "v"},
		Rows: [][]rdf.Term{
			{rdf.IRI("http://ex/a"), rdf.Integer(7)},
			{rdf.Blank("b0"), rdf.String{Val: "hi,\nthere", Lang: "en"}},
			{rdf.IRI("http://ex/c"), nil},
		},
	}
}

func TestWriteJSONSelect(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, selectResults()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "s" {
		t.Fatalf("head.vars wrong: %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("want 3 bindings, got %d", len(doc.Results.Bindings))
	}
	b0 := doc.Results.Bindings[0]
	if b0["s"]["type"] != "uri" || b0["s"]["value"] != "http://ex/a" {
		t.Errorf("row 0 s: %v", b0["s"])
	}
	if b0["v"]["datatype"] != string(rdf.XSDInteger) || b0["v"]["value"] != "7" {
		t.Errorf("row 0 v: %v", b0["v"])
	}
	b1 := doc.Results.Bindings[1]
	if b1["s"]["type"] != "bnode" {
		t.Errorf("row 1 s: %v", b1["s"])
	}
	if b1["v"]["xml:lang"] != "en" || b1["v"]["value"] != "hi,\nthere" {
		t.Errorf("row 1 v: %v", b1["v"])
	}
	if _, bound := doc.Results.Bindings[2]["v"]; bound {
		t.Error("unbound cell must be absent from the binding object")
	}
}

func TestWriteJSONAsk(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, &Results{Form: sparql.FormAsk, Bool: true}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["boolean"] != true {
		t.Fatalf("boolean missing or false: %s", sb.String())
	}
	if _, ok := doc["head"]; !ok {
		t.Fatal("head member missing")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, selectResults()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "s,v\r\n") {
		t.Errorf("missing CRLF header: %q", sb.String())
	}
	// The embedded comma and newline force RFC 4180 quoting; parse the
	// document back and check the cells survived.
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v\n%q", err, sb.String())
	}
	if len(recs) != 4 {
		t.Fatalf("want header+3 records, got %d", len(recs))
	}
	if recs[0][0] != "s" || recs[0][1] != "v" {
		t.Errorf("header: %v", recs[0])
	}
	if recs[1][0] != "http://ex/a" || recs[1][1] != "7" {
		t.Errorf("row 1: %v", recs[1])
	}
	if recs[2][0] != "_:b0" || !strings.HasPrefix(recs[2][1], "hi,") {
		t.Errorf("row 2: %v", recs[2])
	}
	if recs[3][1] != "" {
		t.Errorf("unbound cell must be empty: %v", recs[3])
	}
}

// TestJSONControlCharsRoundTrip: a literal with control characters
// survives JSON encode → decode byte-identically.
func TestJSONControlCharsRoundTrip(t *testing.T) {
	nasty := "a\x01b\x02\tc"
	r := &Results{Form: sparql.FormSelect, Vars: []string{"v"},
		Rows: [][]rdf.Term{{rdf.String{Val: nasty}}}}
	var sb strings.Builder
	if err := WriteJSON(&sb, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Results.Bindings[0]["v"]["value"]; got != nasty {
		t.Fatalf("mangled: %q != %q", got, nasty)
	}
}

// jsonObjectOracle is the map-based document builder WriteJSON used
// before it became an append-style writer, kept as the reference: the
// writer's bytes must equal json.Encoder's over this document.
func jsonObjectOracle(r *Results) (map[string]any, error) {
	if r.Form == sparql.FormAsk {
		return map[string]any{
			"head":    map[string]any{},
			"boolean": r.Bool,
		}, nil
	}
	bindings := make([]map[string]any, 0, len(r.Rows))
	for _, row := range r.Rows {
		b := make(map[string]any, len(row))
		for i, t := range row {
			if t == nil {
				continue // unbound: the variable is simply absent
			}
			obj, err := termJSONOracle(t)
			if err != nil {
				return nil, err
			}
			b[r.Vars[i]] = obj
		}
		bindings = append(bindings, b)
	}
	vars := r.Vars
	if vars == nil {
		vars = []string{}
	}
	return map[string]any{
		"head":    map[string]any{"vars": vars},
		"results": map[string]any{"bindings": bindings},
	}, nil
}

func termJSONOracle(t rdf.Term) (map[string]string, error) {
	typed := func(lex string, dt rdf.IRI) (map[string]string, error) {
		return map[string]string{"type": "literal", "value": lex, "datatype": string(dt)}, nil
	}
	switch v := t.(type) {
	case rdf.IRI:
		return map[string]string{"type": "uri", "value": string(v)}, nil
	case rdf.Blank:
		return map[string]string{"type": "bnode", "value": string(v)}, nil
	case rdf.String:
		obj := map[string]string{"type": "literal", "value": v.Val}
		if v.Lang != "" {
			obj["xml:lang"] = v.Lang
		}
		return obj, nil
	case rdf.Integer:
		return typed(v.String(), rdf.XSDInteger)
	case rdf.Float:
		return typed(v.String(), rdf.XSDDouble)
	case rdf.Boolean:
		return typed(v.String(), rdf.XSDBoolean)
	case rdf.DateTime:
		return typed(v.T.Format(time.RFC3339Nano), rdf.XSDDateTime)
	case rdf.Typed:
		return typed(v.Lexical, v.Datatype)
	case rdf.Array:
		return typed(v.A.String(), rdf.SSDMArray)
	default:
		return nil, fmt.Errorf("cannot serialize %T as a SPARQL-results term", t)
	}
}

// checkJSONMatchesOracle encodes r (with analyze as the "analyze"
// member when non-nil) through EncodeJSON and through json.Encoder over
// the oracle document, and requires the same bytes — or an error from
// both.
func checkJSONMatchesOracle(t *testing.T, r *Results, analyze map[string]any) {
	t.Helper()
	var want bytes.Buffer
	doc, wantErr := jsonObjectOracle(r)
	var raw []byte
	if analyze != nil {
		var err error
		if raw, err = json.Marshal(analyze); err != nil {
			t.Fatal(err)
		}
		if doc != nil {
			doc["analyze"] = analyze
		}
	}
	if wantErr == nil {
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	gotErr := EncodeJSON(r, raw, func(doc []byte) error {
		got = append(got, doc...)
		return nil
	})
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error mismatch: writer %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if got != nil {
			t.Fatalf("emit ran despite %v", gotErr)
		}
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("writer and encoding/json disagree\n got: %q\nwant: %q", got, want.Bytes())
	}
}

// unencodable is a term kind the results formats have no rendering for.
type unencodable struct{}

func (unencodable) Kind() rdf.Kind { return rdf.KindTyped }
func (unencodable) Key() string    { return "unencodable" }
func (unencodable) String() string { return "unencodable" }

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	vec, err := array.Vector(array.IntN(1), array.IntN(2), array.IntN(3))
	if err != nil {
		t.Fatal(err)
	}
	sel := func(vars []string, rows ...[]rdf.Term) *Results {
		return &Results{Form: sparql.FormSelect, Vars: vars, Rows: rows}
	}
	nasty := "q\"b\\s/ \x00\x01\b\f\n\r\t\x1f\x7f <tag> & caf\u00e9 \u2028\u2029 \U0001F600 bad\xff\xc3( end\xe2\x80"
	analyze := map[string]any{"plan": "scan <a> & b", "plan_cached": true, "rows": 3, "text": "l1\nl2"}
	cases := []struct {
		name    string
		r       *Results
		analyze map[string]any
	}{
		{"iris blanks unbound", selectResults(), nil},
		{"typed literals", sel([]string{"i", "f", "b", "d", "t", "a"}, []rdf.Term{
			rdf.Integer(-42), rdf.Float(2.5), rdf.Boolean(true),
			rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 0, time.UTC)},
			rdf.Typed{Lexical: "P1D", Datatype: rdf.IRI("http://www.w3.org/2001/XMLSchema#duration")},
			rdf.NewArray(vec),
		}, []rdf.Term{rdf.Integer(0), rdf.Float(1e21), rdf.Boolean(false), nil, nil, nil}), nil},
		{"lang tags", sel([]string{"l"}, []rdf.Term{rdf.String{Val: "chat", Lang: "fr"}}, []rdf.Term{rdf.String{Val: ""}}), nil},
		{"escaping everywhere", sel([]string{nasty}, []rdf.Term{rdf.String{Val: nasty, Lang: nasty}},
			[]rdf.Term{rdf.IRI(nasty)}, []rdf.Term{rdf.Blank(nasty)},
			[]rdf.Term{rdf.Typed{Lexical: nasty, Datatype: rdf.IRI(nasty)}}), nil},
		{"keys sort by name not position", sel([]string{"b", "a", "B", "a1", ""},
			[]rdf.Term{rdf.Integer(1), rdf.Integer(2), rdf.Integer(3), rdf.Integer(4), rdf.Integer(5)}), nil},
		{"name projected twice keeps last bound cell", sel([]string{"x", "y", "x"},
			[]rdf.Term{rdf.Integer(1), rdf.Integer(2), rdf.Integer(3)},
			[]rdf.Term{rdf.Integer(1), nil, nil},
			[]rdf.Term{nil, nil, rdf.Integer(3)},
			[]rdf.Term{nil, rdf.Integer(2), nil}), nil},
		{"short row", sel([]string{"a", "b"}, []rdf.Term{rdf.Integer(1)}, []rdf.Term{}), nil},
		{"zero vars zero rows", sel(nil), nil},
		{"zero vars one row", sel(nil, []rdf.Term{}), nil},
		{"vars no rows", sel([]string{"s", "p"}), nil},
		{"ask true", &Results{Form: sparql.FormAsk, Bool: true}, nil},
		{"ask false", &Results{Form: sparql.FormAsk}, nil},
		{"select with analyze", selectResults(), analyze},
		{"ask with analyze", &Results{Form: sparql.FormAsk, Bool: true}, analyze},
		{"unencodable term", sel([]string{"s", "v"}, []rdf.Term{rdf.IRI("http://ex/a"), rdf.Integer(1)},
			[]rdf.Term{rdf.IRI("http://ex/b"), unencodable{}}), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkJSONMatchesOracle(t, tc.r, tc.analyze) })
	}
}

// TestTermLexicalKeepsFractionalSeconds: a dateTime's lexical form in
// JSON and CSV results keeps its nanoseconds; a whole-second one reads
// as before.
func TestTermLexicalKeepsFractionalSeconds(t *testing.T) {
	for tm, want := range map[time.Time]string{
		time.Date(2020, 1, 2, 3, 4, 5, 123456789, time.UTC):                 "2020-01-02T03:04:05.123456789Z",
		time.Date(2020, 1, 2, 3, 4, 5, 500000000, time.FixedZone("", 3600)): "2020-01-02T03:04:05.5+01:00",
		time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC):                         "2020-01-02T03:04:05Z",
	} {
		if got := TermLexical(rdf.DateTime{T: tm}); got != want {
			t.Errorf("TermLexical = %s, want %s", got, want)
		}
	}
}

// TestEncodeJSONOversizedDocument: a document larger than the
// pooling cap still encodes correctly, twice over (the second run must
// not see the first one's bytes).
func TestEncodeJSONOversizedDocument(t *testing.T) {
	big := rdf.String{Val: strings.Repeat("x", 3*maxPooledJSON/2)}
	r := &Results{Form: sparql.FormSelect, Vars: []string{"v"}, Rows: [][]rdf.Term{{big}}}
	for i := 0; i < 2; i++ {
		checkJSONMatchesOracle(t, r, nil)
		checkJSONMatchesOracle(t, selectResults(), nil)
	}
}

func FuzzWriteJSON(f *testing.F) {
	f.Add("v", "hello", "en", "http://ex/dt", int64(7), uint8(0))
	f.Add("a<b", "x\u2028y\xff\x01&\"\\", "", "", int64(-1), uint8(3))
	f.Add("", "\b\f\u2029\xe2\x80", "de", "\x7f", int64(1)<<62, uint8(1))
	f.Fuzz(func(t *testing.T, name, val, lang, dt string, n int64, shape uint8) {
		r := &Results{Form: sparql.FormSelect, Vars: []string{name, "k", name}, Rows: [][]rdf.Term{
			{rdf.String{Val: val, Lang: lang}, rdf.IRI(val), nil},
			{rdf.Typed{Lexical: val, Datatype: rdf.IRI(dt)}, rdf.Integer(n), rdf.Blank(val)},
			{nil, rdf.Float(float64(n) / 3), rdf.Boolean(n&1 == 0)},
			{nil, nil, nil},
		}}
		var analyze map[string]any
		switch shape % 4 {
		case 1:
			r = &Results{Form: sparql.FormAsk, Bool: n&1 == 0}
		case 2:
			r.Vars, r.Rows = nil, nil
		case 3:
			analyze = map[string]any{"text": val, "rows": n}
		}
		checkJSONMatchesOracle(t, r, analyze)
	})
}

// BenchmarkWriteJSON pins the result-encoding layer boundary: one
// 100-row, three-column SELECT result to io.Discard.
func BenchmarkWriteJSON(b *testing.B) {
	r := &Results{Form: sparql.FormSelect, Vars: []string{"doc", "title", "year"}}
	for i := 0; i < 100; i++ {
		r.Rows = append(r.Rows, []rdf.Term{
			rdf.IRI("http://ex/doc" + itoa(i)),
			rdf.String{Val: "A title of ordinary length, number " + itoa(i)},
			rdf.Integer(int64(1990 + i%30)),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSON(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
