// Command bench is the repository's one benchmark: a self-contained
// load generator and layer prober that drives SSDM through its real
// front doors (the HTTP SPARQL endpoint and the framed-TCP server, on
// loopback listeners inside this process), checks every answer against
// an oracle, and reports end-to-end and per-layer metrics.
//
//	go run -C bench scisparql/bench -workload meta-mix -seed 1 -seconds 10 -trace 0 [-out runs.jsonl]
//	go run -C bench scisparql/bench -list
//	go run -C bench scisparql/bench -compare base.jsonl head.jsonl
//
// One process runs one workload, so the process-wide chunk cache, the
// metrics registry and the heap never leak between workloads. See
// README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", runSeconds, "timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file and layer table")
		out      = flag.String("out", "", "append the run's full report to this JSON-lines file")
		workDir  = flag.String("workdir", ".work", "scratch directory for the file store, the WAL and trace files")
		list     = flag.Bool("list", false, "print every workload and metric, then exit")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare base.jsonl head.jsonl")
		spec     = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric table, then exit")
	)
	flag.Parse()

	switch {
	case *list:
		if err := printList(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := &config{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds) * time.Second,
		Warmup:   warmup,
		Open:     time.Duration(*seconds) * time.Second / 3,
		Trace:    *trace != 0,
		Scale:    fullScale,
		WorkDir:  *workDir,
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fatal(err)
	}
	rep, err := run(cfg, os.Stderr)
	if err != nil {
		// An incorrect answer or a failed op: say which, report no numbers.
		fatal(err)
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	printReport(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printReport prints every metric by name with its unit and, as the
// last line of standard output, the one JSON object the driver reads:
// the gated end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printReport(rep *report) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	row := func(name string, v metricValue) {
		val, p95, n := "null", "", ""
		if v.Value != nil {
			val = fmt.Sprintf("%.6g", *v.Value)
		}
		if v.P95 != nil {
			p95 = fmt.Sprintf("p95 %.6g", *v.P95)
		}
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		if v.Unresolved {
			n += " unresolved"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", name, val, v.Unit, p95, n)
	}
	fmt.Fprintf(tw, "%s seed %d: %d attempted, %d failed\n", rep.Workload, rep.Meta.Seed, rep.Attempted, rep.Failed)
	for _, m := range endToEndSpecs {
		row(m.Name, rep.EndToEnd[m.Name])
	}
	line := map[string]metricValue{}
	if rep.Traced {
		names := make([]string, 0, len(rep.PerLayer))
		for name := range rep.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(tw, "\t")
		for _, name := range names {
			row(name, rep.PerLayer[name])
			line[name] = rep.PerLayer[name]
		}
	} else {
		for _, m := range driverEndToEnd() {
			line[m.Name] = rep.EndToEnd[m.Name]
		}
	}
	tw.Flush()

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]driverMetric{}
	for name, v := range line {
		metrics[name] = driverMetric{*v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
