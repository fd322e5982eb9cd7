// Package shard implements distributed execution for SSDM: one
// logical dataset hash-partitioned across N shards (local instances
// or remote peers reached over the wire protocol), queried through a
// Coordinator that scatters work to all shards concurrently, merges
// the streams, and pushes partial aggregation down to the shards
// (docs/SHARDING.md, DESIGN.md "Distributed execution").
//
// Triples are partitioned by their subject term: every triple of a
// subject lives on one shard, so star-shaped patterns — all patterns
// sharing one subject — evaluate shard-locally and the coordinator
// only unions or recombines the per-shard results. Everything else
// falls back to gather execution: the coordinator scatters the
// query's triple-pattern masks to all shards, merges the matching
// triples into a scratch graph, and runs the full local engine over
// it, so every SciSPARQL construct keeps working in distributed mode.
package shard

import (
	"errors"

	"scisparql/internal/rdf"
)

// ErrEmptyTopology reports a coordinator or partitioner constructed
// over zero shards.
var ErrEmptyTopology = errors.New("shard: topology has no shards")

// Partitioner maps RDF subjects to shard indices by hashing the bytes
// of the subject's canonical key (rdf.Term.Key). Those bytes are stable
// across processes and releases — unlike per-graph dictionary IDs — so
// every coordinator over the same topology size routes identically, and
// a durable shard's contents never move. IRI and blank subjects are
// hashed from their text and the key's fixed framing, without building
// the key; the placement is pinned by golden hashes in the tests.
type Partitioner struct {
	n int
}

// NewPartitioner creates a partitioner over n shards; n must be
// positive.
func NewPartitioner(n int) (*Partitioner, error) {
	if n <= 0 {
		return nil, ErrEmptyTopology
	}
	return &Partitioner{n: n}, nil
}

// Owner returns the shard index owning all triples of the given
// subject.
func (p *Partitioner) Owner(subject rdf.Term) int {
	return int(KeyHash(subject) % uint64(p.n))
}

// KeyHash hashes a term's canonical key (FNV-1a, 64 bit). Exposed so
// tests and tooling can reproduce the placement of a subject. An IRI
// hashes "<", its text and ">", a blank "_:" and its label, as its key
// reads; other kinds hash Key().
func KeyHash(t rdf.Term) uint64 {
	switch v := t.(type) {
	case rdf.IRI:
		return fnv1a(fnv1a(fnv1a(fnvOffset, "<"), string(v)), ">")
	case rdf.Blank:
		return fnv1a(fnv1a(fnvOffset, "_:"), string(v))
	}
	return fnv1a(fnvOffset, t.Key())
}

// The FNV-1a 64-bit parameters (hash/fnv's).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues the FNV-1a hash h over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
