package qcheck

import (
	"reflect"
	"slices"
	"testing"
)

// TestGenerateIsDeterministic pins replayability: a seed names one
// program, so two generations from the same seed must be identical —
// task tree, oracles and geometry alike.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(%d) differs between calls:\n%s\nvs\n%s", seed, a.OpLog(), b.OpLog())
		}
		for _, queues := range []int{2, 3} {
			if a, b := GenerateMulti(seed, queues), GenerateMulti(seed, queues); !reflect.DeepEqual(a, b) {
				t.Fatalf("GenerateMulti(%d, %d) differs between calls:\n%s\nvs\n%s",
					seed, queues, a.OpLog(), b.OpLog())
			}
		}
		if a, b := GenerateSharded(seed), GenerateSharded(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("GenerateSharded(%d) differs between calls: %+v vs %+v", seed, a, b)
		}
	}
}

// TestCheckPasses runs a handful of programs of every generator at
// workers {1, 2} × segcap {1, 3}: each must match its oracle, and what it
// consumed and folded must equal a one-worker run's.
func TestCheckPasses(t *testing.T) {
	var progs []*Program
	for seed := uint64(1); seed <= 6; seed++ {
		progs = append(progs, Generate(seed), GenerateMulti(seed, 2))
	}
	for _, p := range progs {
		for _, segCap := range []int{1, 3} {
			ref := p.ExecuteFull(1, segCap)
			for _, workers := range []int{1, 2} {
				out, ok := p.CheckFull(workers, segCap)
				if !ok {
					t.Fatalf("seed %d queues=%d workers=%d segcap=%d: outcome %v / %v, oracle %v / %v",
						p.Seed, p.Queues, workers, segCap, out.Consumed, out.Reduced, p.Oracle, p.RedOracle)
				}
				if !Equal(out.Consumed, ref.Consumed) || !slices.Equal(out.Reduced, ref.Reduced) {
					t.Fatalf("seed %d queues=%d workers=%d segcap=%d: outcome differs from the one-worker run",
						p.Seed, p.Queues, workers, segCap)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		p := GenerateSharded(seed)
		for _, workers := range []int{1, 2} {
			if !p.Check(workers) {
				t.Fatalf("sharded seed %d workers=%d (values=%d shards=%d bound=%d): egress differs from the serial elision",
					seed, workers, p.Values, p.Shards, p.Bound)
			}
		}
	}
}

// TestCheckCanFail is the oracle's negative control: a program whose
// expected consumption map or reducer fold has been corrupted must fail
// its check, or a passing check proves nothing.
func TestCheckCanFail(t *testing.T) {
	var p *Program
	victim := -1
	for seed := uint64(1); victim < 0 && seed < 100; seed++ {
		p = Generate(seed)
		for id, vals := range p.Oracle {
			if len(vals) > 0 && (victim < 0 || id < victim) {
				victim = id
			}
		}
	}
	if victim < 0 {
		t.Fatal("no program below seed 100 consumes a value")
	}
	vals := p.Oracle[victim]
	right := slices.Clone(vals)
	vals[len(vals)-1] += 1000
	if _, ok := p.CheckFull(1, 3); ok {
		t.Fatalf("seed %d: CheckFull passed against a corrupted oracle (task %d: %v, really %v)", p.Seed, victim, vals, right)
	}
	p.Oracle[victim] = right
	if _, ok := p.CheckFull(1, 3); !ok {
		t.Fatalf("seed %d: CheckFull failed after the oracle was restored", p.Seed)
	}

	m := GenerateMulti(1, 2)
	for seed := uint64(2); len(m.RedOracle) == 0 && seed < 100; seed++ {
		m = GenerateMulti(seed, 2)
	}
	if len(m.RedOracle) == 0 {
		t.Fatal("no multi-queue program below seed 100 folds a value into its reducer")
	}
	m.RedOracle = append(slices.Clone(m.RedOracle), -1)
	if _, ok := m.CheckFull(1, 3); ok {
		t.Fatalf("CheckFull passed against a corrupted reducer oracle (seed %d)", m.Seed)
	}
}
