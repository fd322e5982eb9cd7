package core

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scisparql/internal/rdf"
	"scisparql/internal/turtle"
)

// Snapshotting (dissertation §2.2.3): SSDM's graphs are main-memory
// structures; an image is dumped to disk and loaded back to survive
// restarts. The image is a plain text file of sections, one per graph,
// each containing standards-compliant Turtle:
//
//	#graph <default>            (or #graph <IRI>)
//	<turtle triples ...>
//
// Resident arrays serialize as nested collections (consolidated again
// on load); proxied arrays serialize as "id"^^ssdm:fileLink literals
// that re-resolve against the back-end attached at load time.

const snapshotHeader = "#ssdm-snapshot 1"

// SaveSnapshot writes the whole dataset to path. It takes the
// operation lock's read side, which excludes writers (but not queries,
// which need no lock), so the image is cross-graph consistent.
func (s *SSDM) SaveSnapshot(path string) error {
	s.op.RLock()
	defer s.op.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := s.writeSnapshotBody(w); err != nil {
		return err
	}
	return w.Flush()
}

// writeSnapshotBody serializes the dataset in snapshot format (header
// plus one Turtle section per graph) to w. The caller holds the
// operation lock (either side: writers are excluded both ways).
func (s *SSDM) writeSnapshotBody(w *bufio.Writer) error {
	fmt.Fprintln(w, snapshotHeader)
	writeGraph := func(name string, g *rdf.Graph) error {
		fmt.Fprintf(w, "#graph <%s>\n", name)
		prepared, err := s.snapshotView(g)
		if err != nil {
			return err
		}
		if err := turtle.Write(w, prepared, s.prefixSnapshot()); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}
	if err := writeGraph("default", s.Dataset.Default); err != nil {
		return err
	}
	for _, name := range s.Dataset.GraphNames() {
		if err := writeGraph(string(name), s.Dataset.Named(name, false)); err != nil {
			return err
		}
	}
	return nil
}

// snapshotView rewrites proxied array terms into file-link literals so
// the Turtle writer never has to pull external data.
func (s *SSDM) snapshotView(g *rdf.Graph) (*rdf.Graph, error) {
	out := rdf.NewGraph()
	tx := out.Begin()
	defer tx.Commit() // out is read only after this returns
	var err error
	g.Triples(func(sub, p, o rdf.Term) bool {
		pi, ok := p.(rdf.IRI)
		if !ok {
			return true
		}
		if at, isArr := o.(rdf.Array); isArr && at.A.Base.Proxy != nil {
			if !at.A.IsWholeBase() {
				err = fmt.Errorf("ssdm: cannot snapshot a partial proxied view")
				return false
			}
			link := rdf.Typed{
				Lexical:  strconv.FormatInt(at.A.Base.Proxy.ArrayID, 10),
				Datatype: rdf.SSDMFileLink,
			}
			tx.Add(sub, pi, link)
			return true
		}
		tx.Add(sub, pi, o)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadSnapshot restores a dataset image written by SaveSnapshot into
// this instance (merging into existing graphs). File links resolve
// against the currently attached back-end.
func (s *SSDM) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// One exclusive critical section for the whole restore, so
	// concurrent queries see either none or all of the snapshot.
	s.op.Lock()
	defer s.op.Unlock()
	return s.loadSnapshotTextLocked(string(data))
}

// loadSnapshotTextLocked restores a snapshot-format document (the body
// SaveSnapshot and checkpoints write). The caller holds the operation
// write lock.
func (s *SSDM) loadSnapshotTextLocked(data string) error {
	lines := strings.Split(data, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != snapshotHeader {
		return fmt.Errorf("ssdm: not a snapshot document")
	}
	var sections []struct {
		name string
		body []string
	}
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "#graph <") {
			name := strings.TrimSuffix(strings.TrimPrefix(line, "#graph <"), ">")
			sections = append(sections, struct {
				name string
				body []string
			}{name: name})
			continue
		}
		if len(sections) == 0 {
			if strings.TrimSpace(line) == "" {
				continue
			}
			return fmt.Errorf("ssdm: content before first #graph section")
		}
		sections[len(sections)-1].body = append(sections[len(sections)-1].body, line)
	}
	for _, sec := range sections {
		var graph rdf.IRI
		if sec.name != "default" {
			graph = rdf.IRI(sec.name)
		}
		if err := s.loadTurtleLocked(strings.Join(sec.body, "\n"), graph); err != nil {
			return fmt.Errorf("ssdm: snapshot graph <%s>: %w", sec.name, err)
		}
	}
	return nil
}
