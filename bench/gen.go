package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"scisparql/internal/array"
	"scisparql/internal/bistab"
)

// Everything the program under test sees is generated here from the
// seed by one PRNG: the bibliographic graph (as Turtle text), the
// parameter pools and the op sequence. The servers receive only the
// generated texts.

const (
	benchNS = "http://bench/"
	writeNS = "http://bench/w/"
	prefixB = "PREFIX b: <" + benchNS + "> "
	prefixW = prefixB + "PREFIX w: <" + writeNS + "> "

	nJournals = 12
	nYears    = 20
	firstYear = 1990
)

// Op classes.
const (
	classLight = iota
	classHeavy
	classFallback
	nClasses
)

var classNames = [nClasses]string{"light", "heavy", "fallback"}

// Result formats an HTTP op asks for.
const (
	fmtJSON = iota
	fmtCSV
)

// scale sizes the generated inputs. The full scale is the benchmark;
// bench_test.go runs a tiny one.
type scale struct {
	Docs          int // meta-mix / mixed-rw bibliographic graph
	ShardDocs     int // sharded-mix graph (gather streams whole predicates, so it is smaller)
	ResidentTasks int // array-resident BISTAB tasks
	OutCoreTasks  int // array-outofcore BISTAB tasks
	Steps         int // trajectory length: each task is a 2 x Steps float64 array
	ChunkBytes    int
	OutCoreCache  int64 // chunk-cache budget on array-outofcore
	// Lengths of the generated op sequences; the loop wraps around them.
	// Every distinct text costs one oracle query, so the array and
	// sharded cycles, whose texts rarely repeat, are shorter.
	MetaCycle, ArrayCycle, ShardCycle int
	OpenRate                          int // open-loop requests per second
}

var fullScale = scale{
	Docs:          20000,
	ShardDocs:     2000,
	ResidentTasks: 64,
	OutCoreTasks:  256,
	Steps:         16384,
	ChunkBytes:    16 << 10,
	OutCoreCache:  8 << 20,
	MetaCycle:     20000,
	ArrayCycle:    4000,
	ShardCycle:    4000,
	OpenRate:      150,
}

// biblio is the SP2Bench-shaped bibliographic graph of E9/E11:
// documents typed, dated, placed in a journal and credited to three
// authors, abstracts on a third of the documents.
//
// The graph is the same for every -seed (set-up generates it from
// graphSeed, as SP2Bench's generator is deterministic); the seed draws
// the parameter pools and the op sequence. What a query allocates
// follows the order in which its rows' dictionary IDs come up (the
// engine's per-query decoder regrows as larger IDs arrive), so a
// re-dealt graph moved alloc_kb_per_op by 6 % from seed to seed with no
// change in the program. The shape is even besides: every (journal,
// year) cell holds the same number of documents, a third of each cell
// has an abstract, and every author is credited on the same number of
// documents, so an anchored query returns the same number of rows
// whichever anchor a seed draws.
type biblio struct {
	docs, authors int
	turtle        string
	triples       int
}

func genBiblio(r *rand.Rand, docs int) *biblio {
	b := &biblio{docs: docs, authors: docs/4 + 1}
	slot := r.Perm(docs)        // slot[d] % cells is d's cell, slot[d] / cells its rank within the cell
	credit := r.Perm(b.authors) // authors in the order they are credited, round-robin
	const cells = nJournals * nYears
	var sb strings.Builder
	sb.Grow(docs * 330)
	sb.WriteString("@prefix b: <" + benchNS + "> .\n")
	for a := 0; a < b.authors; a++ {
		fmt.Fprintf(&sb, "b:author%d b:type b:Person ; b:name \"Author %d\" .\n", a, a)
		b.triples += 2
	}
	for d := 0; d < docs; d++ {
		cell, rank := slot[d]%cells, slot[d]/cells
		fmt.Fprintf(&sb, "b:doc%d b:type b:Article ; b:journal b:journal%d ; b:year %d ; b:title \"Title %d\" ; b:creator b:author%d , b:author%d , b:author%d",
			d, cell/nYears, firstYear+cell%nYears, d,
			credit[3*d%b.authors], credit[(3*d+1)%b.authors], credit[(3*d+2)%b.authors])
		b.triples += 7
		if rank%3 == 0 {
			fmt.Fprintf(&sb, " ; b:abstract \"Abstract of doc %d\"", d)
			b.triples++
		}
		sb.WriteString(" .\n")
	}
	b.turtle = sb.String()
	return b
}

// pools holds the constants the templates draw from. Subjects come
// from a Zipf-ranked pool so a share of the light texts repeats and
// hits the compiled-query cache; (journal, year) anchors come from a
// pool of 24 so the number of distinct heavy texts (and their oracles)
// stays bounded.
type pools struct {
	docs, authors []int
	anchors       [][2]int // journal, year
	zDoc, zAuthor *rand.Zipf
	r             *rand.Rand
}

func newPools(r *rand.Rand, b *biblio) *pools {
	p := &pools{r: r}
	nd, na := min(1500, b.docs), min(80, b.authors)
	p.docs = spreadIDs(r, b.docs, nd)
	p.authors = spreadIDs(r, b.authors, na)
	// Two anchors per journal, and between them every year once plus
	// four mid-range years twice: which journal meets which year is the
	// seed's choice, how many rows a year filter keeps is not.
	years := r.Perm(nYears)
	years = append(years, 3, 8, 13, 18)
	for i, j := range r.Perm(2 * nJournals) {
		p.anchors = append(p.anchors, [2]int{j % nJournals, firstYear + years[i]})
	}
	p.zDoc = rand.NewZipf(r, 1.7, 2, uint64(nd-1))
	p.zAuthor = rand.NewZipf(r, 1.1, 8, uint64(na-1))
	return p
}

// spreadIDs picks n of total IDs for a Zipf-ranked pool. A query's cost
// follows its subject's dictionary ID (the engine's per-query decoder
// is sized by the largest ID it touches), and a Zipf pool is dominated
// by its first few ranks, so drawing the pool at random would make a
// run's cost depend on where the seed's hottest few subjects happen to
// sit. Instead rank i sits at the i-th point of the van der Corput
// sequence (0, 1/2, 1/4, 3/4, ...) of the ID range, shifted by a small
// seeded offset: a different pool for every seed, at the same quantiles.
func spreadIDs(r *rand.Rand, total, n int) []int {
	off := r.Intn(max(total/n, 1))
	ids := make([]int, n)
	for i := range ids {
		q := float64(bits.Reverse32(uint32(i))) / (1 << 32)
		ids[i] = (int(q*float64(total)) + off) % total
	}
	return ids
}

func (p *pools) doc() string    { return fmt.Sprintf("b:doc%d", p.docs[p.zDoc.Uint64()]) }
func (p *pools) author() string { return fmt.Sprintf("b:author%d", p.authors[p.zAuthor.Uint64()]) }
func (p *pools) anchor() (journal string, year int) {
	a := p.anchors[p.r.Intn(len(p.anchors))]
	return fmt.Sprintf("b:journal%d", a[0]), a[1]
}

// anchored wraps a template body that takes a (journal, year) anchor.
func anchored(p *pools) func(func(j string, y int) string) func() string {
	return func(f func(j string, y int) string) func() string {
		return func() string { j, y := p.anchor(); return prefixB + f(j, y) }
	}
}

// template is one query shape; Weight is its count in a 200-op block.
//
// The weights are chosen so that each class's median, and the overall
// median, fall inside the mass of one template (or of neighbours of
// equal cost) rather than on the boundary between a cheap and a dear
// one: a median sitting on such a step flips between the two costs
// from run to run, and no amount of samples steadies it.
type template struct {
	Name   string
	Class  int
	Weight int
	Render func() string
	// Access is the slice of each result array an array template reads
	// (nil: none), at representative parameters; probeStore counts the
	// SPD runs of the chunks it touches.
	Access []array.Range
}

// metaTemplates is the meta-mix: per 200 ops, 140 light (1-2 pattern
// point look-ups), 50 heavy (the E9/E11 shapes, each anchored so it
// returns at most ~2000 rows) and 10 tuple-fallback constructs.
func metaTemplates(p *pools) []template {
	jy := anchored(p)
	return []template{
		{Name: "light.doc-title-year", Class: classLight, Weight: 40, Render: func() string {
			d := p.doc()
			return prefixB + "SELECT ?t ?y WHERE { " + d + " b:title ?t . " + d + " b:year ?y }"
		}},
		{Name: "light.doc-creators", Class: classLight, Weight: 30, Render: func() string {
			return prefixB + "SELECT ?a WHERE { " + p.doc() + " b:creator ?a }"
		}},
		{Name: "light.ask-journal", Class: classLight, Weight: 20, Render: func() string {
			j, _ := p.anchor()
			return prefixB + "ASK { " + p.doc() + " b:journal " + j + " }"
		}},
		{Name: "light.author-name", Class: classLight, Weight: 25, Render: func() string {
			return prefixB + "SELECT ?n WHERE { " + p.author() + " b:name ?n }"
		}},
		{Name: "light.author-docs", Class: classLight, Weight: 25, Render: func() string {
			return prefixB + "SELECT ?d WHERE { ?d b:creator " + p.author() + " }"
		}},

		{Name: "heavy.star-filter", Class: classHeavy, Weight: 8, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?y WHERE { ?d b:type b:Article . ?d b:journal %s . ?d b:year ?y FILTER(?y >= %d) }", j, y)
		})},
		{Name: "heavy.optional", Class: classHeavy, Weight: 7, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?abs WHERE { ?d b:journal %s . ?d b:year %d OPTIONAL { ?d b:abstract ?abs } }", j, y)
		})},
		{Name: "heavy.union", Class: classHeavy, Weight: 7, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?x ?n WHERE { { ?x b:title ?n . ?x b:journal %s . ?x b:year %d } UNION { ?x b:name ?n . ?d b:creator ?x . ?d b:journal %s . ?d b:year %d } }", j, y, j, y)
		})},
		{Name: "heavy.group-by", Class: classHeavy, Weight: 7, Render: jy(func(j string, _ int) string {
			return fmt.Sprintf("SELECT ?y (COUNT(?d) AS ?n) WHERE { ?d b:journal %s . ?d b:year ?y } GROUP BY ?y", j)
		})},
		{Name: "heavy.distinct", Class: classHeavy, Weight: 7, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT DISTINCT ?a WHERE { ?d b:journal %s . ?d b:year %d . ?d b:creator ?a }", j, y)
		})},
		{Name: "heavy.order-limit", Class: classHeavy, Weight: 7, Render: jy(func(j string, _ int) string {
			return fmt.Sprintf("SELECT ?d ?y WHERE { ?d b:journal %s . ?d b:year ?y } ORDER BY DESC(?y) ?d LIMIT 10", j)
		})},
		{Name: "heavy.coauthors", Class: classHeavy, Weight: 7, Render: func() string {
			return prefixB + "SELECT ?d ?a2 WHERE { ?d b:creator " + p.author() + " . ?d b:creator ?a2 }"
		}},

		{Name: "fallback.bind", Class: classFallback, Weight: 2, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?dec WHERE { ?d b:journal %s . ?d b:year ?y FILTER(?y = %d) BIND(floor(?y / 10) * 10 AS ?dec) }", j, y)
		})},
		{Name: "fallback.values", Class: classFallback, Weight: 2, Render: func() string {
			return prefixB + "SELECT ?d ?t WHERE { VALUES ?d { " + p.doc() + " " + p.doc() + " " + p.doc() + " } ?d b:title ?t }"
		}},
		{Name: "fallback.exists", Class: classFallback, Weight: 2, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d WHERE { ?d b:journal %s . ?d b:year %d FILTER EXISTS { ?d b:abstract ?x } }", j, y)
		})},
		{Name: "fallback.minus", Class: classFallback, Weight: 1, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d WHERE { ?d b:journal %s . ?d b:year %d MINUS { ?d b:journal %s . ?d b:year %d . ?d b:abstract ?x } }", j, y, j, y)
		})},
		{Name: "fallback.path", Class: classFallback, Weight: 1, Render: func() string {
			return prefixB + "SELECT ?a2 WHERE { " + p.author() + " ^b:creator/b:creator ?a2 }"
		}},
		{Name: "fallback.subquery", Class: classFallback, Weight: 2, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?t ?n WHERE { { SELECT ?d (COUNT(?a) AS ?n) WHERE { ?d b:journal %s . ?d b:year %d . ?d b:creator ?a } GROUP BY ?d } ?d b:title ?t }", j, y)
		})},
	}
}

// readerTemplates is the reader side of mixed-rw: the meta-mix light
// and heavy shapes, without the fallback tail.
func readerTemplates(p *pools) []template {
	var out []template
	for _, t := range metaTemplates(p) {
		if t.Class != classFallback {
			out = append(out, t)
		}
	}
	return out
}

// shardedTemplates is the sharded-mix: half pushdown-eligible (single
// subject stars and COUNT/SUM/MIN/MAX, class light), half gather
// (cross-subject joins and OPTIONAL, class heavy). The classes differ
// many-fold in cost and the overall median sits on the boundary between
// them, so on this workload read latency by class, not overall.
func shardedTemplates(p *pools) []template {
	jy := anchored(p)
	return []template{
		{Name: "light.owner-star", Class: classLight, Weight: 40, Render: func() string {
			d := p.doc()
			return prefixB + "SELECT ?t ?y WHERE { " + d + " b:title ?t . " + d + " b:year ?y }"
		}},
		{Name: "light.broadcast-star", Class: classLight, Weight: 30, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?t WHERE { ?d b:journal %s . ?d b:year %d . ?d b:title ?t }", j, y)
		})},
		{Name: "light.count", Class: classLight, Weight: 10, Render: jy(func(j string, _ int) string {
			return fmt.Sprintf("SELECT (COUNT(?d) AS ?n) WHERE { ?d b:journal %s }", j)
		})},
		{Name: "light.min-max-sum", Class: classLight, Weight: 20, Render: jy(func(j string, _ int) string {
			return fmt.Sprintf("SELECT (MIN(?y) AS ?lo) (MAX(?y) AS ?hi) (SUM(?y) AS ?s) WHERE { ?d b:journal %s . ?d b:year ?y }", j)
		})},

		{Name: "heavy.journal-year-join", Class: classHeavy, Weight: 35, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?e WHERE { ?d b:journal %s . ?d b:year %d . ?e b:year %d . ?e b:journal ?j2 FILTER(?j2 != %s && ?d != ?e) } ORDER BY ?d ?e LIMIT 50", j, y, y, j)
		})},
		{Name: "heavy.coauthor-names", Class: classHeavy, Weight: 35, Render: func() string {
			return prefixB + "SELECT ?d ?n WHERE { ?d b:creator " + p.author() + " . ?d b:creator ?a2 . ?a2 b:name ?n }"
		}},
		{Name: "heavy.optional", Class: classHeavy, Weight: 30, Render: jy(func(j string, y int) string {
			return fmt.Sprintf("SELECT ?d ?abs WHERE { ?d b:journal %s . ?d b:year %d OPTIONAL { ?d b:abstract ?abs } }", j, y)
		})},
	}
}

// arrayPools draws BISTAB tasks and cases uniformly, so on
// array-outofcore the working set is the whole store.
type arrayPools struct {
	r            *rand.Rand
	tasks, cases int
	steps        int
	chunkElems   int
}

func (p *arrayPools) task() string { return fmt.Sprintf("bi:task%d", 1+p.r.Intn(p.tasks)) }
func (p *arrayPools) caseIRI() string {
	return fmt.Sprintf("bi:case%d", 1+p.r.Intn(p.cases))
}

const prefixBi = "PREFIX bi: <" + bistab.NS + "> "

// bmaxDefine is the user-defined reducer the CONDENSE template folds
// with; set-up installs it with one DEFINE FUNCTION update.
const bmaxDefine = "DEFINE FUNCTION bmax(?a, ?b) AS if(?a > ?b, ?a, ?b)"

// arrayTemplates is the array mix of both array workloads: light is
// BISTAB Q1 plus minibench-shaped element and row look-ups; heavy is
// Q3/Q4 over a parameter case, whole-array and strided aggregates,
// MAP/CONDENSE second-order calls and Q2 slices returned over the wire.
func arrayTemplates(ap *arrayPools) []template {
	one := func(expr func() string) func() string {
		return func() string {
			return prefixBi + "SELECT (" + expr() + " AS ?v) WHERE { " + ap.task() + " bi:result ?r }"
		}
	}
	half := ap.steps / 2
	row := []array.Range{array.Idx(0), array.All()}
	whole := []array.Range{array.All(), array.All()}
	window := []array.Range{array.Idx(0), array.Span(half/2, half/2+half/4)}
	return []template{
		{Name: "light.q1-metadata", Class: classLight, Weight: 60, Render: func() string {
			// k_1 is uniform on [10, 50) per parameter case, so these
			// thresholds keep four fifths or more of the tasks whatever
			// the seed drew; a mid-range threshold would keep anything
			// from a third to two thirds and the query's cost with it.
			return bistab.Q1(float64(10 + ap.r.Intn(9)))
		}},
		{Name: "light.element", Class: classLight, Weight: 45, Access: []array.Range{array.Idx(0), array.Idx(ap.steps / 3)}, Render: one(func() string {
			return fmt.Sprintf("?r[%d,%d]", 1+ap.r.Intn(2), 1+ap.r.Intn(ap.steps))
		})},
		{Name: "light.row-sum", Class: classLight, Weight: 35, Access: row, Render: one(func() string {
			return fmt.Sprintf("asum(?r[%d,:])", 1+ap.r.Intn(2))
		})},

		{Name: "heavy.q3-case-peak", Class: classHeavy, Weight: 7, Access: row, Render: func() string {
			return prefixBi + fmt.Sprintf("SELECT ?task (amax(?r[1,:]) AS ?peak) WHERE { ?task bi:case %s ; bi:result ?r FILTER (amax(?r[1,:]) >= %d) }",
				ap.caseIRI(), 100+50*ap.r.Intn(4))
		}},
		{Name: "heavy.q4-case-avg", Class: classHeavy, Weight: 7, Access: row, Render: func() string {
			return prefixBi + fmt.Sprintf("SELECT ?case (AVG(amax(?r[1,:])) AS ?avgPeak) (COUNT(*) AS ?n) WHERE { VALUES ?case { %s %s } ?task bi:case ?case ; bi:result ?r } GROUP BY ?case ORDER BY ?case",
				ap.caseIRI(), ap.caseIRI())
		}},
		{Name: "heavy.whole-sum", Class: classHeavy, Weight: 12, Access: whole, Render: one(func() string { return "asum(?r)" })},
		{Name: "heavy.whole-max", Class: classHeavy, Weight: 12, Access: whole, Render: one(func() string { return "amax(?r)" })},
		{Name: "heavy.strided-mean", Class: classHeavy, Weight: 6,
			Access: []array.Range{array.All(), array.SpanStep(0, ap.steps, 2*ap.chunkElems)},
			Render: one(func() string {
				// A stride of two chunks: every other chunk of the array is
				// touched, which the SPD reports as one strided run.
				return fmt.Sprintf("aavg(?r[:, %d:%d:%d])", 1+ap.r.Intn(ap.chunkElems), 2*ap.chunkElems, ap.steps)
			})},
		{Name: "heavy.map-sqrt", Class: classHeavy, Weight: 6, Access: window, Render: one(func() string {
			lo := 1 + ap.r.Intn(half)
			return fmt.Sprintf("asum(map(\"sqrt\", ?r[1,%d:%d]))", lo, lo+half/4-1)
		})},
		{Name: "heavy.condense-max", Class: classHeavy, Weight: 6, Access: window, Render: one(func() string {
			lo := 1 + ap.r.Intn(half)
			return fmt.Sprintf("condense(\"bmax\", ?r[2,%d:%d])", lo, lo+half/4-1)
		})},
		{Name: "heavy.q2-slices", Class: classHeavy, Weight: 4,
			Access: []array.Range{array.Idx(0), array.Span(0, min(1024, ap.steps))},
			Render: func() string {
				return prefixBi + fmt.Sprintf("SELECT ?task (?r[1,1:%d] AS ?head) WHERE { ?task bi:case %s ; bi:result ?r }",
					min(1024, ap.steps), ap.caseIRI())
			}},
	}
}

// op is one generated request.
type op struct {
	Tmpl   int
	Class  int
	Format int
	Text   int // index into opSeq.Texts
}

// opSeq is the generated read sequence of one workload.
type opSeq struct {
	Templates []template
	Ops       []op
	Texts     []string // distinct query texts; each gets an oracle at set-up
}

// genOps draws n ops in blocks of exactly the template weights, each
// block shuffled, so every stretch of the run carries the same mix.
// csvShare is the share of ops that ask for CSV (HTTP workloads).
func genOps(r *rand.Rand, tmpls []template, n int, csvShare float64) *opSeq {
	seq := &opSeq{Templates: tmpls}
	var block []int
	for i, t := range tmpls {
		for k := 0; k < t.Weight; k++ {
			block = append(block, i)
		}
	}
	textID := map[string]int{}
	for len(seq.Ops) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ti := range block {
			text := tmpls[ti].Render()
			id, ok := textID[text]
			if !ok {
				id = len(seq.Texts)
				textID[text] = id
				seq.Texts = append(seq.Texts, text)
			}
			format := fmtJSON
			if r.Float64() < csvShare {
				format = fmtCSV
			}
			seq.Ops = append(seq.Ops, op{Tmpl: ti, Class: tmpls[ti].Class, Format: format, Text: id})
		}
	}
	seq.Ops = seq.Ops[:n]
	return seq
}

// Write op kinds of mixed-rw.
const (
	writeInsert = iota // INSERT DATA of one 10-triple document
	writeDelete        // DELETE DATA of an earlier document
	writeModify        // DELETE/INSERT ... WHERE re-dating an earlier document
)

// writeOp is one planned write; the text is rendered when it is sent.
type writeOp struct {
	Kind int
	Doc  int // document number in the write namespace
	Year int // the document's year after the op
}

// genWrites plans n writes: 80 % inserts, 10 % deletes, 10 % pattern
// updates, every delete and update aimed at a live document.
func genWrites(r *rand.Rand, n int) []writeOp {
	var (
		out  []writeOp
		live []int
		year = map[int]int{}
		next int
	)
	for len(out) < n {
		k := r.Intn(10)
		switch {
		case k < 8 || len(live) < 8:
			y := firstYear + r.Intn(nYears)
			out = append(out, writeOp{writeInsert, next, y})
			live = append(live, next)
			year[next] = y
			next++
		case k == 8:
			i := r.Intn(len(live))
			d := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, writeOp{writeDelete, d, year[d]})
		default:
			d := live[r.Intn(len(live))]
			year[d]++
			out = append(out, writeOp{writeModify, d, year[d]})
		}
	}
	return out
}

// wdocTriples renders the ten triples of write-namespace document d.
// Subjects and predicates both live in the write namespace, so no
// reader query over the base namespace can match them and the readers'
// oracles stay valid while the writer runs.
func wdocTriples(d, year int) string {
	return fmt.Sprintf("w:doc%d w:type w:WDoc ; w:journal b:journal%d ; w:year %d ; w:title \"W title %d\" ; w:abstract \"W abstract %d\" ; w:pages %d ; w:volume %d ; w:creator b:author%d , b:author%d , b:author%d .",
		d, d%nJournals, year, d, d, 1+d%40, 1+d%9, d%97, 100+d%89, 200+d%83)
}

// Text renders the update. Because a modify bumps the year by one, the
// year a delete must name is the one the plan recorded.
func (w writeOp) Text() string {
	switch w.Kind {
	case writeInsert:
		return prefixW + "INSERT DATA { " + wdocTriples(w.Doc, w.Year) + " }"
	case writeDelete:
		return prefixW + "DELETE DATA { " + wdocTriples(w.Doc, w.Year) + " }"
	default:
		return prefixW + fmt.Sprintf("DELETE { w:doc%d w:year ?y } INSERT { w:doc%d w:year %d } WHERE { w:doc%d w:year ?y }", w.Doc, w.Doc, w.Year, w.Doc)
	}
}

// wcountQuery counts the live documents of the write namespace.
const wcountQuery = prefixW + "SELECT (COUNT(?d) AS ?n) WHERE { ?d w:type w:WDoc }"

// opsSHA256 fingerprints everything generated for a run: the same seed
// must give the same digest, a different seed a different one.
func opsSHA256(seq *opSeq, writes []writeOp) string {
	h := sha256.New()
	for _, o := range seq.Ops {
		fmt.Fprintf(h, "%d|%d|%d|%s\n", o.Tmpl, o.Class, o.Format, seq.Texts[o.Text])
	}
	for _, w := range writes {
		fmt.Fprintf(h, "w|%d|%d|%d\n", w.Kind, w.Doc, w.Year)
	}
	return hex.EncodeToString(h.Sum(nil))
}
