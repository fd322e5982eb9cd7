package httpfront

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
	"scisparql/internal/server"
	"scisparql/internal/ssdmclient"
)

// TestMixedProtocolStress drives one SSDM instance through both front
// doors at once — HTTP SPARQL-protocol clients (queries, updates,
// analyze) and framed-TCP clients — under -race. Every response must be
// a well-formed success or a typed rejection (429 from the global
// admission cap); anything else is a bug in the shared-state paths.
func TestMixedProtocolStress(t *testing.T) {
	db := core.Open()
	for i := 0; i < 50; i++ {
		addTriple(db.Dataset.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}

	// Framed-TCP door.
	srv := server.New(db)
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// HTTP door over the same instance, with a real http.Server so the
	// full net/http path (not just ServeHTTP) is in play.
	front := New(NewTenants(db))
	front.Metrics = metrics.NewRegistry()
	front.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	front.GlobalMaxInflight = 8
	hs := httptest.NewServer(front)
	t.Cleanup(hs.Close)

	const workers, perWorker = 4, 15
	var wg sync.WaitGroup
	errc := make(chan error, workers*3*perWorker)

	// HTTP query workers (every other request runs analyze).
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				u := hs.URL + "/sparql?query=" + url.QueryEscape(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
				if j%2 == 1 {
					u += "&analyze=1"
				}
				resp, err := http.Get(u)
				if err != nil {
					errc <- fmt.Errorf("http worker %d: %v", i, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if !strings.Contains(string(body), `"bindings"`) {
						errc <- fmt.Errorf("http worker %d: malformed body %s", i, body)
						return
					}
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						errc <- fmt.Errorf("http worker %d: 429 without Retry-After", i)
						return
					}
				default:
					errc <- fmt.Errorf("http worker %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
			}
		}(i)
	}

	// HTTP update workers: writes interleave with both read paths.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				upd := fmt.Sprintf(`INSERT DATA { <http://ex/u%d-%d> <http://ex/q> %d }`, i, j, j)
				resp, err := http.Post(hs.URL+"/update", ctSPARQLUpd, strings.NewReader(upd))
				if err != nil {
					errc <- fmt.Errorf("update worker %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errc <- fmt.Errorf("update worker %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}(i)
	}

	// Framed-TCP workers on the same dataset.
	for i := 0; i < workers; i++ {
		cl, err := ssdmclient.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		wg.Add(1)
		go func(i int, cl *ssdmclient.Client) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				res, err := cl.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
				if err != nil {
					errc <- fmt.Errorf("tcp worker %d: %v", i, err)
					return
				}
				if res.Len() < 50 {
					errc <- fmt.Errorf("tcp worker %d: %d rows, want >= 50", i, res.Len())
					return
				}
			}
		}(i, cl)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Both doors quiesced; the inserted triples are visible over HTTP.
	resp, err := http.Get(hs.URL + "/sparql?query=" +
		url.QueryEscape(`SELECT * WHERE { ?s <http://ex/q> ?v }`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(string(body), `"type":"uri"`) + strings.Count(string(body), `"type": "uri"`); n != 2*perWorker {
		t.Fatalf("post-stress update count %d, want %d", n, 2*perWorker)
	}
}
