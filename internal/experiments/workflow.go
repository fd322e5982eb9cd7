package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/bistab"
	"scisparql/internal/core"
	"scisparql/internal/metrics"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/server"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

// E6Row is one phase of the client/server workflow: the requests the
// server handled for it (one per round trip), the items it moved
// (runs published, slices returned) and the time it took.
type E6Row struct {
	Phase      string        `col:"phase"`
	RoundTrips int64         `col:"round trips"`
	Items      int           `col:"items"`
	Time       time.Duration `col:"time"`
}

// E6 — the Matlab-style workflow of chapter 7, over a real TCP
// connection: a numeric client (playing Matlab's role) publishes 16
// result arrays of 4096 samples with RDF metadata to an SSDM server,
// and a collaborator later retrieves a slice aggregate of the runs a
// metadata filter selects. The server evaluates the array expression,
// so only the selected runs' scalars travel, in one round trip.
func E6(o Options) ([]E6Row, error) {
	db := core.Open()
	db.AttachBackend(storage.NewMemory())
	srv := server.New(db)
	srv.Metrics = metrics.NewRegistry() // this server's requests only
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	requests := func() (n int64) {
		byOp := srv.Metrics.CounterVec("ssdm_requests_total", "", "op")
		for _, op := range []string{protocol.OpTriples, protocol.OpUpdate, protocol.OpQuery} {
			n += byOp.With(op).Value()
		}
		return n
	}

	const runs = 16
	const steps = 4096
	rng := rand.New(rand.NewSource(11))

	// Phase 1: the workflow publishes each run's trajectory with
	// metadata, as §7.2 shows for Matlab results.
	start := time.Now()
	for i := 1; i <= runs; i++ {
		data := make([]float64, steps)
		level := rng.Float64() * 100
		for t := range data {
			level += rng.NormFloat64()
			data[t] = level
		}
		a, err := array.FromFloats(data, steps)
		if err != nil {
			return nil, err
		}
		run := rdf.IRI(fmt.Sprintf("%srun%d", bistab.NS, i))
		if _, err := cl.WriteTriples(context.Background(), [][]rdf.Term{{run, rdf.IRI(bistab.NS + "trajectory"), rdf.NewArray(a)}}, false); err != nil {
			return nil, err
		}
		meta := fmt.Sprintf(`PREFIX bi: <%s>
INSERT DATA { <%s> a bi:Run ; bi:temperature %d ; bi:label "run %d" }`,
			bistab.NS, string(run), 270+i, i)
		if _, err := cl.Update(meta); err != nil {
			return nil, err
		}
	}
	publish := E6Row{"publish runs (array + metadata)", requests(), runs, time.Since(start)}

	// Phase 2: a collaborator finds runs by metadata and pulls a slice
	// aggregate of each trajectory.
	q := fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?run (aavg(?tr[1:256]) AS ?head) WHERE {
  ?run a bi:Run ; bi:temperature ?temp ; bi:trajectory ?tr
  FILTER (?temp >= 280)
} ORDER BY ?run`, bistab.NS)
	start = time.Now()
	var slices int
	for i := 0; i < o.iters; i++ {
		res, err := cl.Query(q)
		if err != nil {
			return nil, err
		}
		slices = res.Len()
	}
	retrieve := E6Row{"metadata query returning slices", (requests() - publish.RoundTrips) / int64(o.iters),
		slices, time.Since(start) / time.Duration(o.iters)}
	return []E6Row{publish, retrieve}, nil
}
