package experiments

// The array-query mini-benchmark of dissertation §6.3: a dataset
// generator producing RDF-with-Arrays graphs whose array values live in
// a configurable storage back-end, and a query generator (§6.3.1)
// emitting SciSPARQL queries for the typical array access patterns —
// including the best and worst cases for each storage choice:
//
//	patFull      — whole-array aggregate (sequential, every chunk)
//	patElement   — one random element (single chunk)
//	patRandom    — K random elements (scattered chunks)
//	patStride    — strided slice (regular chunk progression; the
//	               SPD's home turf)
//	patSlice     — contiguous slice (range queries win)
//	patRow       — one row of a matrix (contiguous in row-major)
//	patColumn    — one column of a matrix (maximally strided)
//
// Experiments 1–3 and ablations A2/A3 are parameter sweeps over it.

import (
	"context"
	"fmt"
	"math/rand"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// workloadNS is the namespace of the generated dataset.
const workloadNS = "http://udbl.uu.se/minibench#"

// pattern identifies an access pattern of the query generator.
type pattern uint8

const (
	patFull pattern = iota
	patElement
	patRandom
	patStride
	patSlice
	patRow
	patColumn
)

func (p pattern) String() string {
	switch p {
	case patFull:
		return "full"
	case patElement:
		return "element"
	case patRandom:
		return "random"
	case patStride:
		return "stride"
	case patSlice:
		return "slice"
	case patRow:
		return "row"
	case patColumn:
		return "column"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// allPatterns lists the generator's patterns in report order.
var allPatterns = []pattern{
	patFull, patElement, patRandom,
	patStride, patSlice, patRow, patColumn,
}

// workload describes the generated dataset.
type workload struct {
	NumArrays  int   // number of stored arrays
	Rows, Cols int   // matrix shape of each array
	ChunkBytes int   // chunk size when externalized
	Seed       int64 // deterministic data
}

// defaultWorkload is the scale the printed tables use.
func defaultWorkload() workload {
	return workload{NumArrays: 4, Rows: 256, Cols: 256, ChunkBytes: 8 * 1024, Seed: 1}
}

// elements returns elements per array.
func (w workload) elements() int { return w.Rows * w.Cols }

// build creates an SSDM instance holding the workload's arrays. With a
// nil backend the arrays stay resident (the MEMORY configuration);
// otherwise they are externalized with the workload's chunk size.
func build(w workload, backend storage.Backend) (*core.SSDM, error) {
	db := core.Open()
	db.Opts.ChunkBytes = w.ChunkBytes
	rng := rand.New(rand.NewSource(w.Seed))
	var rows [][]rdf.Term
	for i := 1; i <= w.NumArrays; i++ {
		data := make([]float64, w.elements())
		for j := range data {
			data[j] = rng.Float64() * 100
		}
		a, err := array.FromFloats(data, w.Rows, w.Cols)
		if err != nil {
			return nil, err
		}
		subj := iri(fmt.Sprintf("array%d", i))
		rows = append(rows,
			[]rdf.Term{subj, iri("id"), rdf.Integer(int64(i))},
			[]rdf.Term{subj, iri("data"), rdf.NewArray(a)})
	}
	if _, err := db.WriteTriples(context.Background(), rows, false); err != nil {
		return nil, err
	}
	if backend != nil {
		db.AttachBackend(backend)
		if _, err := db.Externalize(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// query emits a SciSPARQL query exercising the pattern against array
// arrayID. rng drives the random positions; param means: K for
// patRandom, the stride for patStride, the slice fraction
// denominator for patSlice (1/param of the array).
func query(p pattern, arrayID int, w workload, param int, rng *rand.Rand) string {
	deref := func(expr string) string {
		return fmt.Sprintf(
			"PREFIX mb: <%s>\nSELECT (%s AS ?v) WHERE { ?s mb:id %d ; mb:data ?a }",
			workloadNS, expr, arrayID)
	}
	switch p {
	case patFull:
		return deref("asum(?a)")
	case patElement:
		r := rng.Intn(w.Rows) + 1
		c := rng.Intn(w.Cols) + 1
		return deref(fmt.Sprintf("?a[%d,%d]", r, c))
	case patRandom:
		k := param
		if k <= 0 {
			k = 16
		}
		expr := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				expr += " + "
			}
			expr += fmt.Sprintf("?a[%d,%d]", rng.Intn(w.Rows)+1, rng.Intn(w.Cols)+1)
		}
		return deref(expr)
	case patStride:
		s := param
		if s <= 1 {
			s = 4
		}
		return deref(fmt.Sprintf("asum(?a[1:%d:%d,:])", s, w.Rows))
	case patSlice:
		frac := param
		if frac <= 1 {
			frac = 4
		}
		hi := w.Rows / frac
		if hi < 1 {
			hi = 1
		}
		return deref(fmt.Sprintf("asum(?a[1:%d,:])", hi))
	case patRow:
		r := rng.Intn(w.Rows) + 1
		return deref(fmt.Sprintf("asum(?a[%d,:])", r))
	case patColumn:
		c := rng.Intn(w.Cols) + 1
		return deref(fmt.Sprintf("asum(?a[:,%d])", c))
	default:
		return deref("asum(?a)")
	}
}

// run executes one query of the pattern against array arrayID, its
// random positions drawn from seed, and checks that it returns one row.
func run(db *core.SSDM, p pattern, arrayID int, w workload, param int, seed int64) error {
	res, err := db.Query(query(p, arrayID, w, param, rand.New(rand.NewSource(seed))))
	if err != nil {
		return fmt.Errorf("%s query failed: %w", p, err)
	}
	if res.Len() != 1 {
		return fmt.Errorf("%s query returned %d rows", p, res.Len())
	}
	return nil
}

func iri(local string) rdf.IRI { return rdf.IRI(workloadNS + local) }
