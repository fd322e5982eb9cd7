// Package scisparql is the public API of this SciSPARQL / SSDM
// implementation: a Scientific SPARQL Database Manager that stores RDF
// graphs extended with numeric multidimensional arrays as values
// ("RDF with Arrays") and answers SciSPARQL queries over them — the
// system described in "Scientific SPARQL: Semantic Web Queries over
// Scientific Data" (ICDE 2012) and the accompanying dissertation.
//
// Quick start:
//
//	db := scisparql.Open()
//	db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data ((1 2) (3 4)) .`, "")
//	res, _ := db.Query(`PREFIX ex: <http://ex/>
//	    SELECT (asum(?a[1,:]) AS ?row) WHERE { ex:m ex:data ?a }`)
//	fmt.Println(res.Rows[0][0]) // 3
//
// Arrays can live resident in memory, in chunked binary files
// (filestore back-end) or in a relational database (relbackend), and
// are fetched lazily chunk by chunk when queries touch them.
package scisparql

import (
	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/relrdf"
	"scisparql/internal/relstore"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
	"scisparql/internal/storage/relbackend"
)

// DB is a Scientific SPARQL database manager instance.
type DB = core.SSDM

// Options configure a DB.
type Options = core.Options

// Results is a query solution table.
type Results = engine.Results

// Prepared is a parsed query executable repeatedly with different
// parameter bindings.
type Prepared = core.Prepared

// Limits are per-call execution bounds for DB.QueryLimits; zero fields
// fall back to the instance Options.
type Limits = engine.Limits

// Typed failure classes, classifiable with errors.Is. Queries
// interrupted by deadline, cancellation or a resource budget — and
// panics trapped inside the engine — report these rather than plain
// text-only errors.
var (
	// ErrQueryTimeout reports a query that exceeded its wall-clock
	// deadline (Options.QueryTimeout or a per-call limit).
	ErrQueryTimeout = engine.ErrQueryTimeout
	// ErrQueryCancelled reports a query whose context was cancelled.
	ErrQueryCancelled = engine.ErrQueryCancelled
	// ErrResourceLimit reports a query that exceeded a result-row or
	// intermediate-bindings budget.
	ErrResourceLimit = engine.ErrResourceLimit
	// ErrInternal reports a panic trapped inside query execution.
	ErrInternal = engine.ErrInternal
)

// Term is an RDF term (IRI, blank node, literal or array value).
type Term = rdf.Term

// Re-exported term constructors and types.
type (
	// IRI is a resource identifier term.
	IRI = rdf.IRI
	// Integer is an integer literal term.
	Integer = rdf.Integer
	// Float is a double literal term.
	Float = rdf.Float
	// String is a string literal term.
	String = rdf.String
	// Boolean is a boolean literal term.
	Boolean = rdf.Boolean
	// Array is a numeric multidimensional array value term.
	Array = rdf.Array
	// ForeignFunc is the signature of Go functions callable from
	// queries. Its args slice is valid only for the duration of the
	// call; a function that keeps argument terms copies them out.
	ForeignFunc = engine.ForeignFunc
)

// NumArray is a numeric multidimensional array value.
type NumArray = array.Array

// Open creates an in-memory SSDM instance with default options.
func Open() *DB { return core.Open() }

// OpenWith creates an SSDM instance with explicit options.
func OpenWith(opts Options) *DB { return core.OpenWith(opts) }

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewFloatArray builds a resident float array from row-major data.
func NewFloatArray(data []float64, shape ...int) (*NumArray, error) {
	return array.FromFloats(data, shape...)
}

// NewIntArray builds a resident integer array from row-major data.
func NewIntArray(data []int64, shape ...int) (*NumArray, error) {
	return array.FromInts(data, shape...)
}

// NewArrayTerm wraps an array as an RDF term.
func NewArrayTerm(a *NumArray) Array { return rdf.NewArray(a) }

// Backend is an array storage back-end (the Array Storage
// Extensibility Interface).
type Backend = storage.Backend

// NewMemoryBackend creates the in-process chunked array store.
func NewMemoryBackend() Backend { return storage.NewMemory() }

// NewFileBackend creates (or reopens) a directory-backed binary array
// store.
func NewFileBackend(dir string) (Backend, error) { return filestore.New(dir) }

// RelationalStrategy selects how the relational back-end formulates
// chunk retrieval SQL.
type RelationalStrategy = relbackend.Strategy

// Retrieval strategies of the relational back-end (see the paper's
// storage evaluation): one statement per chunk, buffered IN-lists, or
// SPD-detected range queries.
const (
	StrategySingle   = relbackend.StrategySingle
	StrategyBuffered = relbackend.StrategyBuffered
	StrategySPD      = relbackend.StrategySPD
)

// NewRelationalBackend creates an embedded relational database and an
// SSDM relational array back-end on top of it.
func NewRelationalBackend(strategy RelationalStrategy) (*relbackend.Backend, error) {
	b, err := relbackend.New(relstore.NewDatabase())
	if err != nil {
		return nil, err
	}
	b.Strategy = strategy
	return b, nil
}

// RDFStore persists whole RDF-with-Arrays graphs relationally (triples
// partitioned by value type, arrays chunked in the same database).
type RDFStore = relrdf.Store

// NewRDFStore creates an embedded relational database holding both the
// triple tables and the array chunk tables — the back-end scenario
// where metadata and bulk data live in one external store.
func NewRDFStore() (*RDFStore, error) {
	return relrdf.New(relstore.NewDatabase())
}
