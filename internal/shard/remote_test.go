package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/server"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

// remoteCluster starts n in-process SSDM servers and builds a
// coordinator over remote shards dialed through the wire protocol —
// the same path a real multi-host deployment uses. It also returns the
// servers' instances, for tests that inspect what the shards store.
func remoteCluster(t *testing.T, n int) (*core.SSDM, *Coordinator, []*core.SSDM) {
	t.Helper()
	node := core.Open()
	shards := make([]Shard, n)
	dbs := make([]*core.SSDM, n)
	for i := range shards {
		db := core.Open()
		db.AttachBackend(storage.NewMemory())
		dbs[i] = db
		srv := server.New(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sh, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	c, err := New(node, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	node.SetDistributor(c)
	return node, c, dbs
}

func TestRemoteShardsRoundTrip(t *testing.T) {
	node, _, _ := remoteCluster(t, 3)

	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA {
		ex:r1 ex:v 1 ; ex:tag "a" .
		ex:r2 ex:v 2 ; ex:tag "b" .
		ex:r3 ex:v 3 ; ex:tag "a" .
		ex:r4 ex:v 4 .
	}`); err != nil {
		t.Fatal(err)
	}

	// Pushdown over the wire: partial aggregates merge.
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) (COUNT(?s) AS ?n) WHERE { ?s ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(10) || res.Get(0, "n") != rdf.Integer(4) {
		t.Fatalf("aggregate over remote shards: %v", res.Rows)
	}

	// Gather over the wire: the scan masks stream triples back.
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT ?s ?u WHERE { ?s ex:tag ?g . ?u ex:tag ?g . FILTER(?s != ?u) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("self-join over remote shards: %v", res.Rows)
	}

	// Distributed Turtle load with arrays ships them over the array API.
	if err := node.LoadTurtle(`@prefix ex: <http://ex/> .
ex:m1 ex:data (1 2 3 4) . ex:m2 ex:data (5 6) .`, ""); err != nil {
		t.Fatal(err)
	}
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(asum(?a)) AS ?t) WHERE { ?s ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(21) {
		t.Fatalf("array sum over remote shards: %v", res.Rows)
	}
}

func TestRemoteShardDownFailsTyped(t *testing.T) {
	node, c, _ := remoteCluster(t, 2)
	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:r1 ex:v 1 . ex:r2 ex:v 2 }`); err != nil {
		t.Fatal(err)
	}
	// Kill one shard's connection; the next scatter must fail typed,
	// not hang or return partial rows.
	c.shards[1].Close()
	_, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:v ?v }`)
	if !errors.Is(err, core.ErrShardUnavailable) {
		t.Fatalf("query after shard close = %v, want ErrShardUnavailable", err)
	}
}

func TestRemoteGroundSubjectRoutesOnce(t *testing.T) {
	node, c, _ := remoteCluster(t, 4)
	for i := 0; i < 8; i++ {
		if _, err := node.Update(fmt.Sprintf(`PREFIX ex: <http://ex/> INSERT DATA { ex:g%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:g3 ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "v") != rdf.Integer(3) {
		t.Fatalf("ground-subject result %v", res.Rows)
	}
	after := c.Stats()
	var delta int64
	for i := range after.PerShard {
		delta += after.PerShard[i].Calls - before.PerShard[i].Calls
	}
	if delta != 1 {
		t.Fatalf("ground-subject query issued %d shard calls, want exactly 1", delta)
	}
}

// TestRemoteScanGroundTermsMatchLocal: a scan pattern is made of terms,
// not of their text. Every ground term a gather mask can carry must
// select the same triples on a remote shard as on a local one — as
// SELECT text, a dateTime lost its fractional seconds (Term.String is
// not Term.Key) and the remote leg silently matched nothing; as a JSON
// number, a NaN could not be sent at all.
func TestRemoteScanGroundTermsMatchLocal(t *testing.T) {
	db := core.Open()
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	local := NewLocalShard("local", db)

	var (
		p     = rdf.IRI("http://ex/p")
		q     = rdf.IRI("http://ex/q")
		doc   = rdf.IRI("http://ex/doc")
		stamp = rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 123456789, time.UTC)}
		quote = rdf.String{Val: "say \"hej\"\nthen leave", Lang: "sv"}
		typed = rdf.Typed{Lexical: "a\"b\\c\n", Datatype: rdf.IRI("http://ex/dt")}
	)
	g := db.Dataset.Default
	for i, o := range []rdf.Term{stamp, quote, typed, rdf.Integer(-42), rdf.Float(1e-7), rdf.Boolean(true),
		rdf.DateTime{T: stamp.T.Truncate(time.Second)}, rdf.String{Val: quote.Val}, rdf.Integer(42), rdf.Boolean(false),
		rdf.Float(math.NaN()), rdf.Float(math.Inf(1))} {
		addTriple(g, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), p, o)
	}
	addTriple(g, rdf.Blank("b7"), q, doc)
	addTriple(g, doc, q, rdf.Blank("b7"))

	for _, tc := range []struct {
		name    string
		s, p, o rdf.Term
		want    int
	}{
		{"dateTime with nanoseconds", nil, p, stamp, 1},
		{"lang string with quotes and a newline", nil, p, quote, 1},
		{"typed with an escaped lexical", nil, p, typed, 1},
		{"negative integer", nil, p, rdf.Integer(-42), 1},
		{"1e-7", nil, p, rdf.Float(1e-7), 1},
		{"boolean", nil, nil, rdf.Boolean(true), 1},
		{"NaN, which JSON has no number for", nil, p, rdf.Float(math.NaN()), 1},
		{"+Inf", nil, p, rdf.Float(math.Inf(1)), 1},
		{"blank subject as wildcard", nil, q, doc, 1},
		{"blank object comes back", doc, q, nil, 1},
		{"whole predicate", nil, p, nil, 12},
		{"everything", nil, nil, nil, 14},
		{"ground triple present", rdf.IRI("http://ex/s0"), p, stamp, 1},
		{"ground triple absent", rdf.IRI("http://ex/s1"), p, stamp, 0},
		{"term the shard never saw", nil, p, rdf.Integer(7), 0},
	} {
		scan := func(sh Shard) []string {
			var rows []string
			if err := sh.Scan(context.Background(), tc.s, tc.p, tc.o, func(s, p, o rdf.Term) bool {
				rows = append(rows, s.Key()+" "+p.Key()+" "+o.Key())
				return true
			}); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, sh.Name(), err)
			}
			sort.Strings(rows)
			return rows
		}
		got, want := scan(remote), scan(local)
		if len(want) != tc.want {
			t.Errorf("%s: local shard matched %d triples, want %d", tc.name, len(want), tc.want)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: remote shard matched %q, local %q", tc.name, got, want)
		}
	}
}

// TestRemoteScanEveryKindEveryMask: for a triple of every term kind and
// each of the eight wildcard masks over it, a remote scan — a row table
// of the wildcard positions, the bound ones filled back in by the
// client — matches what the local shard matches. An array is compared
// by content, and is never a bound position: its identity is the
// resident value, which a peer does not share.
func TestRemoteScanEveryKindEveryMask(t *testing.T) {
	db := core.Open()
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	local := NewLocalShard("local", db)

	ints, _ := array.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	objects := []rdf.Term{
		rdf.IRI("http://ex/o"), rdf.Blank("b1"), rdf.String{Val: "plain"}, rdf.String{Val: "say \"hej\"\n", Lang: "sv"},
		rdf.Integer(math.MinInt64), rdf.Float(math.NaN()), rdf.Float(math.Copysign(0, -1)), rdf.Boolean(false),
		rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 123456789, time.FixedZone("", 3600))},
		rdf.Typed{Lexical: "a\"b\\c", Datatype: rdf.IRI("http://ex/dt")}, rdf.NewArray(ints),
	}
	g := db.Dataset.Default
	var triples [][3]rdf.Term
	for i, o := range objects {
		s := rdf.Term(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)))
		if i%2 == 1 {
			s = rdf.Blank(fmt.Sprintf("s%d", i))
		}
		tr := [3]rdf.Term{s, rdf.IRI(fmt.Sprintf("http://ex/p%d", i%3)), o}
		addTriple(g, tr[0], tr[1], tr[2])
		triples = append(triples, tr)
	}
	key := func(t rdf.Term) string {
		if a, ok := t.(rdf.Array); ok {
			b, err := array.AppendMarshal(nil, a.A)
			if err != nil {
				panic(err)
			}
			return fmt.Sprintf("array %x", b)
		}
		return t.Key()
	}
	scan := func(sh Shard, pat [3]rdf.Term) []string {
		var rows []string
		if err := sh.Scan(context.Background(), pat[0], pat[1], pat[2], func(s, p, o rdf.Term) bool {
			rows = append(rows, key(s)+" "+key(p)+" "+key(o))
			return true
		}); err != nil {
			t.Fatalf("%v on %s: %v", pat, sh.Name(), err)
		}
		sort.Strings(rows)
		return rows
	}
	for _, tr := range triples {
		for mask := range 8 {
			pat := tr
			for c := range pat {
				if mask&(1<<c) != 0 {
					pat[c] = nil
				}
			}
			if _, ok := pat[2].(rdf.Array); ok {
				continue
			}
			got, want := scan(remote, pat), scan(local, pat)
			if len(want) == 0 {
				t.Errorf("mask %03b of %v: the local shard matched nothing", mask, tr)
			}
			if !slices.Equal(got, want) {
				t.Errorf("mask %03b of %v: remote shard matched %q, local %q", mask, tr, got, want)
			}
		}
	}
}

// TestScanRefusedByCoordinator: a coordinator's own graph is empty, so
// as somebody else's shard it must refuse a scan instead of answering
// "no triples" — and the coordinator stacked on it reports the leg
// typed, naming the peer.
func TestScanRefusedByCoordinator(t *testing.T) {
	node, _, _ := remoteCluster(t, 2)
	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:r1 ex:tag "a" . ex:r2 ex:tag "a" }`); err != nil {
		t.Fatal(err)
	}
	srv := server.New(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	mid, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	err = mid.Scan(context.Background(), nil, nil, nil, func(s, p, o rdf.Term) bool {
		t.Error("a refused scan emitted a triple")
		return false
	})
	var se *ssdmclient.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "coordinates shards") {
		t.Fatalf("scan of a coordinator = %v, want a server-reported refusal", err)
	}

	top := core.Open()
	c, err := New(top, []Shard{mid})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	top.SetDistributor(c)
	_, err = top.Query(`PREFIX ex: <http://ex/> SELECT ?s ?u WHERE { ?s ex:tag ?g . ?u ex:tag ?g . FILTER(?s != ?u) }`)
	if !errors.Is(err, core.ErrShardUnavailable) || !strings.Contains(err.Error(), addr) {
		t.Fatalf("gather over a coordinator = %v, want ErrShardUnavailable naming %s", err, addr)
	}
}

// addTriple commits (s, p, o) to g as a one-triple transaction.
func addTriple(g *rdf.Graph, s, p, o rdf.Term) {
	tx := g.Begin()
	tx.Add(s, p, o)
	tx.Commit()
}
