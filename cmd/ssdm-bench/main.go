// Command ssdm-bench prints the evaluation tables of the paper /
// dissertation, at the scale experiments.DefaultOptions fixes:
//
//	-exp 1   retrieval-strategy comparison (§6.3.2)
//	-exp 2   IN-list buffer size sweep (§6.3.3)
//	-exp 3   chunk size sweep (§6.3.4)
//	-exp 4   BISTAB application queries (§6.4.4–6.4.5)
//	-exp 5   RDF collection consolidation (§5.3.2)
//	-exp 6   client/server workflow round trips (chapter 7)
//	-exp 7   BISTAB dataset scaling
//	-exp a1  ablation: cost-based join ordering
//	-exp a2  ablation: sequence pattern detection
//	-exp a3  ablation: aggregate pushdown (AAPR)
//	-exp all everything, in order
//
// The counter columns (statements, bytes, chunks, bindings, rows, round
// trips, triples) are deterministic and asserted by the tests of
// internal/experiments; the time columns are this machine's and carry
// no protocol. Performance numbers with one come from bench/ (see
// bench/README.md), not from here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"text/tabwriter"
	"time"

	"scisparql/internal/experiments"
)

// table adapts one experiment function to the printer.
func table[R any](f func(experiments.Options) ([]R, error)) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return f(o) }
}

var all = []struct {
	id, title string
	run       func(experiments.Options) (any, error)
}{
	{"1", "Experiment 1: retrieval strategies (§6.3.2)", table(experiments.E1)},
	{"2", "Experiment 2: IN-list buffer size sweep, pattern random, K=64 (§6.3.3)", table(experiments.E2)},
	{"3", "Experiment 3: chunk size sweep, SQL-SPD (§6.3.4)", table(experiments.E3)},
	{"4", "Experiment 4: BISTAB application queries (§6.4.4–6.4.5)", table(experiments.E4)},
	{"5", "Experiment 5: RDF collection consolidation (§5.3.2)", table(experiments.E5)},
	{"6", "Experiment 6: client/server workflow round trips (chapter 7)", table(experiments.E6)},
	{"7", "Experiment 7: BISTAB dataset scaling (MEMORY store)", table(experiments.E7)},
	{"a1", "Ablation A1: cost-based join ordering", table(experiments.A1)},
	{"a2", "Ablation A2: sequence pattern detection", table(experiments.A2)},
	{"a3", "Ablation A3: aggregate pushdown (AAPR)", table(experiments.A3)},
}

func main() {
	exp := flag.String("exp", "all", "experiment id: 1..7, a1..a3, or all")
	flag.Parse()
	if err := run(strings.ToLower(*exp)); err != nil {
		fmt.Fprintf(os.Stderr, "ssdm-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(want string) error {
	tmp, err := os.MkdirTemp("", "ssdm-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o := experiments.DefaultOptions(tmp)
	fmt.Printf("Scale: %v\n\n", o)

	matched := false
	for _, e := range all {
		if want != "all" && want != e.id {
			continue
		}
		matched = true
		rows, err := e.run(o)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Println(e.title)
		if err := printTable(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", want)
	}
	return nil
}

// printTable renders a slice of row structs: one column per field named
// by its `col` tag, or one per comma-separated name for an array field.
func printTable(w io.Writer, rows any) error {
	v := reflect.ValueOf(rows)
	t := v.Type().Elem()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	var header []string
	for i := 0; i < t.NumField(); i++ {
		header = append(header, strings.Split(t.Field(i).Tag.Get("col"), ",")...)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for r := 0; r < v.Len(); r++ {
		var cells []string
		for i := 0; i < t.NumField(); i++ {
			f := v.Index(r).Field(i)
			if f.Kind() != reflect.Array {
				cells = append(cells, cell(f))
				continue
			}
			for j := 0; j < f.Len(); j++ {
				cells = append(cells, cell(f.Index(j)))
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

func cell(v reflect.Value) string {
	if d, ok := v.Interface().(time.Duration); ok {
		return d.Round(time.Microsecond).String()
	}
	return fmt.Sprint(v.Interface())
}
