// Package bistab reproduces the BISTAB computational-biology
// application of dissertation §6.4: stochastic simulations of a
// bistable chemical system, whose parameter cases and realizations are
// described as RDF metadata while each realization's species
// trajectories are numeric arrays.
//
// The original data was produced by a stochastic simulator and stored
// in the Chelonia e-Science store (Figure 2: tasks with variables k_1,
// k_a, k_d, k_4, realization, result). We regenerate an equivalent
// dataset synthetically: per task a seeded random walk that flips
// between the two attractors of a bistable system, so that the §6.4.4
// queries exercise the same shapes — metadata-only selection, array
// slicing per matching task, filtering by array aggregates, and
// aggregation across realizations.
package bistab

import (
	"context"
	"fmt"
	"math/rand"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// NS is the namespace of the generated dataset.
const NS = "http://udbl.uu.se/bistab#"

// Config sizes the synthetic BISTAB dataset.
type Config struct {
	Cases        int // parameter cases (combinations of k_1..k_4)
	Realizations int // stochastic realizations per case
	Steps        int // time steps per trajectory
	ChunkBytes   int
	Seed         int64
}

// DefaultConfig is a laptop-scale instance of the §6.4.3 setup.
func DefaultConfig() Config {
	return Config{Cases: 8, Realizations: 4, Steps: 2048, ChunkBytes: 8 * 1024, Seed: 7}
}

// Tasks returns the number of generated tasks.
func (c Config) Tasks() int { return c.Cases * c.Realizations }

// Generate builds the BISTAB dataset in a fresh SSDM instance, written
// as one transaction. With a non-nil backend the trajectory arrays are
// externalized.
func Generate(cfg Config, backend storage.Backend) (*core.SSDM, error) {
	db := core.Open()
	db.Opts.ChunkBytes = cfg.ChunkBytes
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows [][]rdf.Term
	add := func(s, p, o rdf.Term) { rows = append(rows, []rdf.Term{s, p, o}) }

	taskNo := 0
	for c := 0; c < cfg.Cases; c++ {
		// Parameter case, in the ranges Figure 2 shows.
		k1 := 10 + rng.Float64()*40   // 10..50
		ka := 30 + rng.Float64()*60   // 30..90
		kd := 1e8 + rng.Float64()*9e8 // 1e8..1e9
		k4 := 40 + rng.Float64()*40   // 40..80
		caseIRI := rdf.IRI(fmt.Sprintf("%scase%d", NS, c+1))
		add(caseIRI, rdf.RDFType, rdf.IRI(NS+"ParameterCase"))
		for r := 0; r < cfg.Realizations; r++ {
			taskNo++
			task := rdf.IRI(fmt.Sprintf("%stask%d", NS, taskNo))
			add(task, rdf.RDFType, rdf.IRI(NS+"Task"))
			add(task, rdf.IRI(NS+"case"), caseIRI)
			add(task, rdf.IRI(NS+"k_1"), rdf.Float(k1))
			add(task, rdf.IRI(NS+"k_a"), rdf.Float(ka))
			add(task, rdf.IRI(NS+"k_d"), rdf.Float(kd))
			add(task, rdf.IRI(NS+"k_4"), rdf.Float(k4))
			add(task, rdf.IRI(NS+"realization"), rdf.Integer(int64(r+1)))
			traj := simulate(cfg.Steps, k1, k4, rng)
			add(task, rdf.IRI(NS+"result"), rdf.NewArray(traj))
		}
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

// simulate produces a 2 x steps trajectory of species A and B counts:
// a noisy relaxation toward one of two attractors with occasional
// switches — the qualitative behaviour of the bistable system whose
// statistics the BISTAB study collected.
func simulate(steps int, k1, k4 float64, rng *rand.Rand) *array.Array {
	a := array.NewFloat(2, steps)
	loA, hiA := k1*2, k1*10 // two attractors for species A
	level := loA
	if rng.Intn(2) == 1 {
		level = hiA
	}
	x := level
	y := k4 * 3
	for t := 0; t < steps; t++ {
		// Occasional attractor switch.
		if rng.Float64() < 0.002 {
			if level == loA {
				level = hiA
			} else {
				level = loA
			}
		}
		x += 0.1*(level-x) + rng.NormFloat64()*k1*0.1
		if x < 0 {
			x = 0
		}
		y += 0.05*(k4*3-y) + rng.NormFloat64()*k4*0.05
		if y < 0 {
			y = 0
		}
		a.Base.F[t] = x
		a.Base.F[steps+t] = y
	}
	return a
}

// The application queries of §6.4.4, parameterized by thresholds.

// Q1 selects tasks by metadata only: parameter filter over k_1.
func Q1(k1Min float64) string {
	return fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?task ?k WHERE { ?task a bi:Task ; bi:k_1 ?k FILTER (?k >= %g) }`, NS, k1Min)
}

// Q2 retrieves the head of species A's trajectory for tasks matching a
// metadata filter — array access driven by metadata selection.
func Q2(k1Min float64, head int) string {
	return fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?task (?r[1,1:%d] AS ?head) WHERE {
  ?task a bi:Task ; bi:k_1 ?k ; bi:result ?r FILTER (?k >= %g)
}`, NS, head, k1Min)
}

// Q3 filters tasks by a computation over the whole array: realizations
// whose species-A peak exceeds a threshold.
func Q3(peakMin float64) string {
	return fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?task (amax(?r[1,:]) AS ?peak) WHERE {
  ?task a bi:Task ; bi:result ?r FILTER (amax(?r[1,:]) >= %g)
}`, NS, peakMin)
}

// Q4 aggregates across realizations: the mean species-A peak per
// parameter case.
func Q4() string {
	return fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?case (AVG(amax(?r[1,:])) AS ?avgPeak) (COUNT(*) AS ?n) WHERE {
  ?task a bi:Task ; bi:case ?case ; bi:result ?r
} GROUP BY ?case ORDER BY ?case`, NS)
}

// Queries returns the named application queries with default
// parameters, in report order.
func Queries(cfg Config) []struct{ Name, Text string } {
	return []struct{ Name, Text string }{
		{"Q1", Q1(30)},
		{"Q2", Q2(30, 100)},
		{"Q3", Q3(100)},
		{"Q4", Q4()},
	}
}
