package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readReports loads a JSON-lines file of untraced reports, grouped by
// workload.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// series is one metric's values over a file's runs of one workload.
type series struct {
	vals       []float64 // sorted
	unresolved bool      // some run marked the metric unresolved
}

func seriesOf(runs []*report, metric string) series {
	var s series
	for _, r := range runs {
		if v := r.EndToEnd[metric]; v.Value != nil {
			s.vals = append(s.vals, *v.Value)
			s.unresolved = s.unresolved || v.Unresolved
		}
	}
	sort.Float64s(s.vals)
	return s
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a difference must exceed to mean
// anything.
func (s series) spread() float64 {
	m := quantile(s.vals, 0.5)
	if len(s.vals) < 4 || m == 0 {
		return 0
	}
	return (quantile(s.vals, 0.75) - quantile(s.vals, 0.25)) / m
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the ratio with its base, both inputs' quartile spreads, and
// for a metric with a bound a verdict: ok, worse (beyond the bound) or
// unresolved (either input's own quartile spread exceeds the bound, so
// the runs cannot tell). It reports whether anything got worse,
// counting any rise in failed_ratio.
func compareFiles(w io.Writer, basePath, headPath string) (worse bool, err error) {
	base, err := readReports(basePath)
	if err != nil {
		return false, err
	}
	head, err := readReports(headPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tBASE\tHEAD\tUNIT\tHEAD/BASE\tBOUND\tSPREAD b/h\tRUNS b/h\tVERDICT")
	for _, wl := range workloadSpecs {
		b, h := base[wl.Name], head[wl.Name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, m := range endToEndSpecs {
			sb, sh := seriesOf(b, m.Name), seriesOf(h, m.Name)
			if len(sb.vals) == 0 || len(sh.vals) == 0 {
				continue // not defined on this workload
			}
			mb, mh := quantile(sb.vals, 0.5), quantile(sh.vals, 0.5)
			verdict := "ok"
			change := 0.0 // how much worse head is, as a share of base
			if mb != 0 {
				change = (mh - mb) / mb
				if m.Better == "higher" {
					change = -change
				}
			}
			switch {
			case m.Bound == notGated:
				verdict = "not gated"
			case m.Bound == 0:
				if mh > mb {
					verdict = "worse"
				}
			case sb.unresolved || sh.unresolved || sb.spread() > m.Bound || sh.spread() > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
			}
			worse = worse || verdict == "worse"
			ratio := "-"
			if mb != 0 {
				ratio = fmt.Sprintf("%.3f (base %.6g)", mh/mb, mb)
			}
			bound := "-"
			switch {
			case m.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			case m.Bound == 0:
				bound = "any rise"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%.1f%%/%.1f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, mb, mh, m.Unit, ratio, bound, sb.spread()*100, sh.spread()*100, len(sb.vals), len(sh.vals), verdict)
		}
	}
	return worse, tw.Flush()
}
