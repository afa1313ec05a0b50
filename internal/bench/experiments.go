package bench

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/workloads/bzip2"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/ferret"
)

// Config sizes the experiments. Scale grows workloads for longer, less
// noisy runs.
type Config struct {
	MaxCores int
	Reps     int
	Scale    int // 1 = quick (seconds), 4 = paper-like minutes
}

// FerretParams returns the calibrated ferret workload for the config.
func (c Config) FerretParams() ferret.Params {
	p := ferret.DefaultParams()
	p.NumImages *= c.Scale
	return p
}

// DedupInput returns the synthetic dedup input for the config.
func (c Config) DedupInput() []byte {
	return dedup.GenerateInput(42, c.Scale*8*1024*1024, 0.5)
}

// Bzip2Input returns the synthetic bzip2 input for the config.
func (c Config) Bzip2Input() []byte {
	return bzip2.GenerateInput(7, c.Scale*2*1024*1024)
}

// Table1 regenerates Table 1: ferret's serial stage characterization.
func Table1(c Config) *Table {
	p := c.FerretParams()
	corpus := ferret.NewCorpus(p)
	rows := ferret.CharacterizeStages(corpus, p)
	names := make([]string, len(rows))
	iters := make([]int, len(rows))
	secs := make([]float64, len(rows))
	for i, r := range rows {
		names[i], iters[i], secs[i] = r.Name, r.Iterations, r.Seconds
	}
	return StageTable(
		"Table 1: Characterization of ferret's pipeline",
		names, iters, secs,
		"Paper (PARSEC native): Input 4.48%, Segmentation 3.57%, Extraction 0.35%, Vectorizing 16.20%, Ranking 75.30%, Output 0.10%.",
	)
}

// Table2 regenerates Table 2: dedup's serial stage characterization.
func Table2(c Config) *Table {
	rows := dedup.CharacterizeStages(c.DedupInput(), dedup.DefaultOptions())
	names := make([]string, len(rows))
	iters := make([]int, len(rows))
	secs := make([]float64, len(rows))
	for i, r := range rows {
		names[i], iters[i], secs[i] = r.Name, r.Iterations, r.Seconds
	}
	return StageTable(
		"Table 2: Characterization of the dedup pipeline",
		names, iters, secs,
		"Paper (PARSEC native): Fragment 3.08%, FragmentRefine 6.35%, Deduplicate 7.90%, Compress 74.48%, Output 8.19%.",
	)
}

// A model is one line of a figure. build returns the run closure for one
// core count; the Swan models build their runtime there, once per core
// count, so repetitions 2+ reuse its runtime-wide segment pool — the
// workloads recycle their queues at the end of each run, and a warm pool
// means the repeated run's queue setup allocates nothing. Each call of the
// closure is one timed run and returns the run's output.
type model struct {
	name  string
	build func(cores int) func() []byte
}

// modelTable is one paper workload as its figure sweeps it: the serial
// elision (the speedup baseline), the models in figure order, and the
// check every model's output must pass.
type modelTable struct {
	workload string
	serial   func() []byte
	models   []model
	check    func(out []byte) error
}

// sameAs is the check of a workload whose every model must reproduce the
// serial run's output byte for byte.
func sameAs(want []byte) func(out []byte) error {
	return func(out []byte) error {
		if !bytes.Equal(out, want) {
			return errors.New("output differs from the serial run's")
		}
		return nil
	}
}

// ferretModels are the four lines of Figure 8. Pthreads is PARSEC-style
// oversubscribed: its thread count per stage is a machine constant
// (oversub; 28 in the paper), not the core count.
func ferretModels(corpus *ferret.Corpus, p ferret.Params, oversub int) modelTable {
	serial := func() []byte { return ferret.RunSerial(corpus, p).Text }
	return modelTable{
		workload: "ferret",
		serial:   serial,
		models: []model{
			{"Pthreads", func(int) func() []byte {
				return func() []byte { return ferret.RunPthreads(corpus, p, oversub, 4*oversub).Text }
			}},
			{"TBB", func(cores int) func() []byte {
				return func() []byte { return ferret.RunTBB(corpus, p, cores, 4*cores).Text }
			}},
			{"Objects", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return ferret.RunObjects(rt, corpus, p).Text }
			}},
			{"Hyperqueue", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return ferret.RunHyperqueue(rt, corpus, p, 16).Text }
			}},
		},
		check: sameAs(serial()),
	}
}

// dedupModels are the four lines of Figure 11, parameterized like
// ferretModels. The baselines intern chunk ids in arrival order, so their
// streams differ from the serial run's; the check is that every stream
// reassembles to the input.
func dedupModels(data []byte, o dedup.Options, oversub int) modelTable {
	return modelTable{
		workload: "dedup",
		serial:   func() []byte { return dedup.RunSerial(data, o).Stream },
		models: []model{
			{"Pthreads", func(int) func() []byte {
				return func() []byte { return dedup.RunPthreads(data, o, oversub, 4*oversub).Stream }
			}},
			{"TBB", func(cores int) func() []byte {
				return func() []byte { return dedup.RunTBB(data, o, cores, 4*cores).Stream }
			}},
			{"Objects", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return dedup.RunObjects(rt, data, o).Stream }
			}},
			{"Hyperqueue", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return dedup.RunHyperqueue(rt, data, o, 64).Stream }
			}},
		},
		check: func(out []byte) error {
			back, err := dedup.Reassemble(out)
			if err != nil {
				return err
			}
			if !bytes.Equal(back, data) {
				return errors.New("stream does not reassemble to the input")
			}
			return nil
		},
	}
}

// bzip2Models are the three lines of §6.3: task dataflow (objects),
// hyperqueue, and hyperqueue with the §5.4 loop split.
func bzip2Models(data []byte, blockSize int) modelTable {
	serial := func() []byte { return bzip2.RunSerial(data, blockSize) }
	return modelTable{
		workload: "bzip2",
		serial:   serial,
		models: []model{
			{"Objects", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return bzip2.RunObjects(rt, data, blockSize) }
			}},
			{"Hyperqueue", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return bzip2.RunHyperqueue(rt, data, blockSize, 8) }
			}},
			{"Hyperqueue+LoopSplit", func(cores int) func() []byte {
				rt := newRuntime(cores)
				return func() []byte { return bzip2.RunHyperqueueLoopSplit(rt, data, blockSize, 8, 8) }
			}},
		},
		check: sameAs(serial()),
	}
}

// sweep times t's serial run, then every model at every CoreCounts point,
// best of c.Reps each. After each timed point it checks the last run's
// output, outside the timed region; the first failure ends the sweep with
// an error naming the workload, model and core count.
func sweep(c Config, t modelTable) (serial float64, series []Series, err error) {
	serial = Measure(c.MaxCores, c.Reps, func() { t.serial() })
	for _, m := range t.models {
		s := Series{Model: m.name}
		for _, cores := range CoreCounts(c.MaxCores) {
			run := m.build(cores)
			var out []byte
			secs := Measure(cores, c.Reps, func() { out = run() })
			if err := t.check(out); err != nil {
				return 0, nil, fmt.Errorf("%s: %s at %d cores: %w", t.workload, m.name, cores, err)
			}
			s.Points = append(s.Points, Point{Cores: cores, Seconds: secs, Speedup: serial / secs})
		}
		series = append(series, s)
	}
	return serial, series, nil
}

// Fig8 regenerates Figure 8: ferret speedup under the four programming
// models.
func Fig8(c Config) (*Table, error) {
	p := c.FerretParams()
	serial, series, err := sweep(c, ferretModels(ferret.NewCorpus(p), p, c.MaxCores+4))
	if err != nil {
		return nil, err
	}
	return SpeedupTable(
		"Figure 8: Ferret speedup by programming model",
		series,
		fmt.Sprintf("Speedup relative to the serial implementation (%.3fs). Paper shape: Objects trails (input stage not overlapped); Pthreads, TBB and Hyperqueue track each other.", serial),
	), nil
}

// Fig11 regenerates Figure 11: dedup speedup under the four models.
func Fig11(c Config) (*Table, error) {
	serial, series, err := sweep(c, dedupModels(c.DedupInput(), dedup.DefaultOptions(), c.MaxCores+4))
	if err != nil {
		return nil, err
	}
	return SpeedupTable(
		"Figure 11: Dedup speedup by programming model",
		series,
		fmt.Sprintf("Speedup relative to the serial implementation (%.3fs). Paper shape: Hyperqueue leads Pthreads by 12-30%% in the 6-8 core region; TBB trails Pthreads; speedups plateau (serial Output stage).", serial),
	), nil
}

// Bzip2 regenerates the §6.3 comparison: task dataflow (objects) vs
// hyperqueue vs hyperqueue with the §5.4 loop split.
func Bzip2(c Config) (*Table, error) {
	serial, series, err := sweep(c, bzip2Models(c.Bzip2Input(), 64*1024))
	if err != nil {
		return nil, err
	}
	return SpeedupTable(
		"Section 6.3: bzip2 speedup, task dataflow vs hyperqueue",
		series,
		fmt.Sprintf("Speedup relative to the serial implementation (%.3fs). Paper: hyperqueue matches the task-dataflow baseline; the loop-split variant fixes serial-execution memory locality at equal performance.", serial),
	), nil
}
