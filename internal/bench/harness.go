// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§6) — Table 1, Figure 8, Table 2,
// Figure 11 and the bzip2 results of §6.3 — as formatted text, and
// provides the measurement plumbing (core sweeps, speedup series, table
// rendering) behind cmd/paperbench.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Table is a formatted experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned monospace text with a Markdown
// flavor.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// Point is one measurement of a speedup curve.
type Point struct {
	Cores   int
	Seconds float64
	Speedup float64
}

// Series is one model's speedup curve (one line of a figure).
type Series struct {
	Model  string
	Points []Point
}

// CoreCounts returns the sweep 1,2,4,6,8,12,16,... up to max (always
// including max), mirroring the paper's x-axis.
func CoreCounts(max int) []int {
	candidates := []int{1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 48, 64}
	var out []int
	for _, c := range candidates {
		if c < max {
			out = append(out, c)
		}
	}
	return append(out, max)
}

// Measure times fn with GOMAXPROCS pinned to cores, returning the best of
// reps runs in seconds (the paper reports steady-state performance;
// best-of filters scheduler warmup noise).
func Measure(cores, reps int, fn func()) float64 {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)
	best := math.Inf(1)
	for i := 0; i < max(reps, 1); i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start).Seconds())
	}
	return best
}

// SpeedupTable renders a figure's series as a table: one row per core
// count, one column per model.
func SpeedupTable(title string, series []Series, notes ...string) *Table {
	t := &Table{Title: title, Header: []string{"Cores"}, Notes: notes}
	coreSet := map[int]bool{}
	for _, s := range series {
		t.Header = append(t.Header, s.Model)
		for _, p := range s.Points {
			coreSet[p.Cores] = true
		}
	}
	var cores []int
	for c := range coreSet {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		row := []string{fmt.Sprintf("%d", c)}
		for _, s := range series {
			cell := "-"
			for _, p := range s.Points {
				if p.Cores == c {
					cell = fmt.Sprintf("%.2f", p.Speedup)
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// StageTable renders a Table 1 / Table 2 style stage characterization.
func StageTable(title string, names []string, iters []int, secs []float64, notes ...string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"Stage", "Iterations", "Time (s)", "Time (%)"},
		Notes:  notes,
	}
	var total float64
	for _, s := range secs {
		total += s
	}
	for i, n := range names {
		t.Rows = append(t.Rows, []string{
			n,
			fmt.Sprintf("%d", iters[i]),
			fmt.Sprintf("%.3f", secs[i]),
			fmt.Sprintf("%.2f", 100*secs[i]/total),
		})
	}
	return t
}
