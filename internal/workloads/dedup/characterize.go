package dedup

import "time"

// StageTime is one row of the Table 2 characterization.
type StageTime struct {
	Name       string
	Iterations int
	Seconds    float64
	Percent    float64
}

// CharacterizeStages measures the serial per-stage breakdown of the dedup
// pipeline — the harness that regenerates Table 2. Iteration counts
// follow the paper's accounting: Fragment and FragmentRefine count coarse
// chunks, Deduplicate and Output count all fine chunks, Compress counts
// only unique chunks.
func CharacterizeStages(data []byte, o Options) []StageTime {
	rows := []StageTime{
		{Name: "Fragment"},
		{Name: "FragmentRefine"},
		{Name: "Deduplicate"},
		{Name: "Compress"},
		{Name: "Output"},
	}
	store := NewStore()
	var res Result

	t0 := time.Now()
	coarse := Fragment(data, o)
	rows[0].Seconds = time.Since(t0).Seconds()
	rows[0].Iterations = len(coarse)

	for _, cc := range coarse {
		t1 := time.Now()
		chunks := refineChunks(cc, o)
		rows[1].Seconds += time.Since(t1).Seconds()
		rows[1].Iterations++

		for i := range chunks {
			c := &chunks[i]
			t2 := time.Now()
			Deduplicate(c, store, o.DedupRounds)
			t3 := time.Now()
			Compress(c)
			t4 := time.Now()
			res.Stream, res.Checksum = output(res.Stream, res.Checksum, c, o)
			t5 := time.Now()
			rows[2].Seconds += t3.Sub(t2).Seconds()
			rows[2].Iterations++
			if !c.Dup {
				rows[3].Seconds += t4.Sub(t3).Seconds()
				rows[3].Iterations++
			}
			rows[4].Seconds += t5.Sub(t4).Seconds()
			rows[4].Iterations++
		}
	}
	var total float64
	for _, r := range rows {
		total += r.Seconds
	}
	for i := range rows {
		rows[i].Percent = 100 * rows[i].Seconds / total
	}
	return rows
}
