// Matlab-style workflow (the paper's chapter-7 scenario) over a real
// TCP connection: a numeric program publishes each run's result array
// together with Semantic-Web metadata to an SSDM server; a
// collaborator later finds results by metadata queries and receives
// only the server-computed slices — the traditional workflow is
// preserved, metadata handling is added around it.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"scisparql"
	"scisparql/internal/rdf"
	"scisparql/internal/server"
	"scisparql/internal/ssdmclient"
)

const ns = "http://example.org/flow#"

func main() {
	// Server side: SSDM with an in-process chunked array store.
	db := scisparql.Open()
	db.AttachBackend(scisparql.NewMemoryBackend())
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("SSDM server on", addr)

	// Client side: the "Matlab" workflow.
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — compute and publish: each run produces a damped
	// oscillation; the workflow stores the trajectory and annotates it.
	for run := 1; run <= 5; run++ {
		const n = 1000
		data := make([]float64, n)
		freq := float64(run)
		for t := 0; t < n; t++ {
			x := float64(t) / 100
			data[t] = math.Exp(-x/5) * math.Sin(freq*x)
		}
		a, err := scisparql.NewFloatArray(data, n)
		if err != nil {
			log.Fatal(err)
		}
		subject := rdf.IRI(fmt.Sprintf("%srun%d", ns, run))
		if _, err := cl.WriteTriples(context.Background(), [][]rdf.Term{{subject, rdf.IRI(ns + "signal"), rdf.NewArray(a)}}, false); err != nil {
			log.Fatal(err)
		}
		meta := fmt.Sprintf(`PREFIX f: <%s>
INSERT DATA { <%s> a f:Run ; f:frequency %g ; f:author "alice" }`,
			ns, string(subject), freq)
		if _, err := cl.Update(meta); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published run %d (%d samples + metadata)\n", run, n)
	}

	// Phase 2 — a collaborator searches by metadata. The server
	// evaluates the array expressions; only scalars and the requested
	// head slice cross the wire.
	res, err := cl.Query(fmt.Sprintf(`PREFIX f: <%s>
SELECT ?run ?freq (amax(?s) AS ?peak) (?s[1:5] AS ?head)
WHERE {
  ?run a f:Run ; f:author "alice" ; f:frequency ?freq ; f:signal ?s
  FILTER (?freq >= 3)
} ORDER BY ?freq`, ns))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nruns with frequency >= 3: %d\n", res.Len())
	for i := 0; i < res.Len(); i++ {
		fmt.Printf("  %v  freq=%v  peak=%v  head=%v\n",
			res.Get(i, "run"), res.Get(i, "freq"), res.Get(i, "peak"), res.Get(i, "head"))
	}

	// Phase 3 — annotate a result after the fact, then find it by the
	// new annotation: the Semantic Web way of curating computations.
	if _, err := cl.Update(fmt.Sprintf(`PREFIX f: <%s>
INSERT DATA { <%srun4> f:tag "publication-figure-3" }`, ns, ns)); err != nil {
		log.Fatal(err)
	}
	tagged, err := cl.Query(fmt.Sprintf(`PREFIX f: <%s>
SELECT ?run (acount(?s) AS ?samples) WHERE { ?run f:tag "publication-figure-3" ; f:signal ?s }`, ns))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntagged for the paper: %v with %v samples\n",
		tagged.Get(0, "run"), tagged.Get(0, "samples"))
}
