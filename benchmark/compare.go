package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json, the contract the acceptance
// driver reads, that the benchmark itself uses.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRecords reads an -out file: one result object per line.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges side b against side a from each side's runs of one
// metric on one workload. A spread wider than the bound on either side
// cannot resolve a change of the bound's size: that is unresolved, never
// unchanged. Otherwise b has regressed when its median is worse than a's
// by more than the bound, and improved when it is better by more than
// either side's spread.
func verdict(a, b []float64, better string, bound float64) string {
	sa, sb := spread(a), spread(b)
	if max(sa, sb) > bound {
		return unresolved
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return regressed
	case -worse > max(sa, sb):
		return improved
	}
	return unchanged
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both files and returns the exit code: 1 when any row regressed or a
// workload failed a larger share of its operations in b than in a.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fatal("%v", err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readRecords(pathB)
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "median A", "spread", "median B", "spread", "change", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(ra, ms.Name), values(rb, ms.Name)
			if len(va) == 0 || len(vb) == 0 || ms.Bound == nil {
				continue
			}
			v := verdict(va, vb, ms.Better, *ms.Bound)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%%  %s\n", wl.Name, ms.Name,
				median(va), 100*spread(va), median(vb), 100*spread(vb), 100*(median(vb)-median(va))/median(va), v)
		}
		if fa, fb := failShare(ra), failShare(rb); fb > fa {
			fmt.Fprintf(w, "%-14s ops_failed/ops_attempted rose from %g to %g\n", wl.Name, fa, fb)
			code = 1
		}
	}
	return code
}

func untraced(rs []result, workload string) []result {
	var out []result
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failShare(rs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
