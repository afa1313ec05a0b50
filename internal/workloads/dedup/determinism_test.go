package dedup

import (
	"bytes"
	"fmt"
	"testing"

	"repro/swan"
)

// TestHyperqueueBitDeterministic pins the payoff of moving dedup's hash
// index onto hypermaps: the entire Result — output stream bytes,
// unique/dup records, chunk ids, checksum — is bit-identical to the
// serial elision under every worker count and
// repetition. The baselines cannot pass this (their Store is
// arrival-ordered); the hyperqueue model must.
func TestHyperqueueBitDeterministic(t *testing.T) {
	data := GenerateInput(7, 256*1024, 0.5)
	opts := smallOpts()
	ref := RunSerial(data, opts)

	for _, workers := range []int{1, 4, 8} {
		// "policy=steal" keeps the case names the sweep had when it also
		// ran a second scheduler; the work-stealing one is the only one now.
		name := fmt.Sprintf("policy=steal/workers=%d", workers)
		t.Run(name, func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				res := RunHyperqueue(swan.New(workers), data, opts, 64)
				if res.Checksum != ref.Checksum {
					t.Fatalf("rep %d: checksum %#x, serial elision has %#x", rep, res.Checksum, ref.Checksum)
				}
				if !bytes.Equal(res.Stream, ref.Stream) {
					t.Fatalf("rep %d: output stream differs from the serial elision (len %d vs %d)",
						rep, len(res.Stream), len(ref.Stream))
				}
			}
		})
	}
}
