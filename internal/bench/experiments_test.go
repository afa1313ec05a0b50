package bench

import (
	"strings"
	"testing"

	"repro/internal/workloads/bzip2"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/ferret"
)

// TestPaperModelsCheck sweeps every model of the three paper tables at
// 1 and 2 cores on tiny inputs, so each model's output passes its
// workload's check. A mutation row per workload flips one byte of a
// model's output and expects the sweep to fail, naming the workload,
// model and core count: a check that passes everything fails here.
func TestPaperModelsCheck(t *testing.T) {
	p := ferret.DefaultParams()
	p.NumImages, p.DBSize = 8, 60
	c := Config{MaxCores: 2, Reps: 1}
	for _, tb := range []modelTable{
		ferretModels(ferret.NewCorpus(p), p, c.MaxCores+4),
		dedupModels(dedup.GenerateInput(42, 256*1024, 0.5), dedup.DefaultOptions(), c.MaxCores+4),
		bzip2Models(bzip2.GenerateInput(7, 128*1024), 64*1024),
	} {
		if _, _, err := sweep(c, tb); err != nil {
			t.Errorf("check failed: %v", err)
		}
		good := tb.models[len(tb.models)-1]
		tb.models = []model{{"flipped", func(cores int) func() []byte {
			run := good.build(cores)
			return func() []byte {
				out := run()
				out[len(out)/2] ^= 1
				return out
			}
		}}}
		_, _, err := sweep(c, tb)
		if want := tb.workload + ": flipped at 1 cores: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: sweep over a corrupted output returned %v, want an error starting %q", tb.workload, err, want)
		}
	}
}
