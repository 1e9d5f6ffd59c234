package core

import (
	"testing"

	"agentring/internal/sim"
	"agentring/internal/verify"
)

// TestRelaxedNearlyFullRingRegression pins the configuration that
// called for the modular acceptance test (seq.AlignSubsequenceMod): a
// nearly full 29-node ring where many agents estimate n'=1 from an
// all-ones gap window and suspend after 12 moves. Under the paper's literal
// prefix-sum equality these agents reject every correction whose sender
// is deep into its patrol; the modular acceptance restores Lemma 5.
func TestRelaxedNearlyFullRingRegression(t *testing.T) {
	homes := []int{1, 12, 23, 9, 26, 5, 27, 13, 15, 0, 14, 19, 4, 8, 2, 28, 22, 3, 11, 24, 20, 21, 18, 16, 25, 10, 7}
	n := 29
	for seed := int64(0); seed < 8; seed++ {
		res, err := tryRelaxed(n, homes, sim.NewRandom(17+seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.CheckDefinition2(n, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
