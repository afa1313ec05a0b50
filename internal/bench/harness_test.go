package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTableFormat(t *testing.T) {
	tb := &Table{
		Title:  "Demo",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tb.Format()
	if !strings.Contains(s, "## Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "| A   | Blong |") {
		t.Errorf("misaligned header:\n%s", s)
	}
	if !strings.Contains(s, "| 333 | 4     |") {
		t.Errorf("misaligned row:\n%s", s)
	}
	if !strings.Contains(s, "a note") {
		t.Error("missing note")
	}
}

func TestCoreCounts(t *testing.T) {
	got := CoreCounts(8)
	want := []int{1, 2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("CoreCounts(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CoreCounts(8) = %v, want %v", got, want)
		}
	}
	if got := CoreCounts(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CoreCounts(1) = %v", got)
	}
	// Max always included even when not a standard step.
	got = CoreCounts(7)
	if got[len(got)-1] != 7 {
		t.Fatalf("CoreCounts(7) = %v; must end at 7", got)
	}
}

func TestMeasureRestoresGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	Measure(1, 1, func() {})
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS %d -> %d", before, after)
	}
}

func TestMeasureBestOf(t *testing.T) {
	calls := 0
	d := Measure(1, 3, func() {
		calls++
		if calls == 1 {
			time.Sleep(20 * time.Millisecond) // first run slow
		}
	})
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
	if d >= 0.02 {
		t.Fatalf("best-of did not filter the slow run: %v", d)
	}
}

func TestSpeedupTableMergesSeries(t *testing.T) {
	s := []Series{
		{Model: "A", Points: []Point{{Cores: 1, Speedup: 1}, {Cores: 4, Speedup: 3.5}}},
		{Model: "B", Points: []Point{{Cores: 4, Speedup: 2.25}}},
	}
	tb := SpeedupTable("X", s)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %v", tb.Rows)
	}
	if tb.Rows[0][0] != "1" || tb.Rows[0][1] != "1.00" || tb.Rows[0][2] != "-" {
		t.Fatalf("row 0 = %v", tb.Rows[0])
	}
	if tb.Rows[1][2] != "2.25" {
		t.Fatalf("row 1 = %v", tb.Rows[1])
	}
}

func TestStageTablePercentages(t *testing.T) {
	tb := StageTable("S", []string{"a", "b"}, []int{1, 2}, []float64{1, 3})
	if tb.Rows[0][3] != "25.00" || tb.Rows[1][3] != "75.00" {
		t.Fatalf("percent cells: %v / %v", tb.Rows[0], tb.Rows[1])
	}
}
