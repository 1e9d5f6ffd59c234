package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"agentring/internal/seq"
)

// ErrBadShape rejects impossible configuration requests.
var ErrBadShape = fmt.Errorf("workload: impossible configuration")

func validate(n, k int) error {
	if n < 1 || k < 1 || k > n {
		return fmt.Errorf("%w: n=%d k=%d", ErrBadShape, n, k)
	}
	return nil
}

// Random places k agents on distinct uniformly random nodes of an
// n-ring.
func Random(n, k int, rng *rand.Rand) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	// A fresh k-entry slice, so a placement does not pin the n-entry
	// permutation.
	homes := make([]int, k)
	copy(homes, rng.Perm(n))
	return homes, nil
}

// Clustered packs k agents contiguously starting at node 0 — the Fig 3
// configuration that forces Ω(kn) total moves when k ≤ n/4: about a
// quarter of the agents must cross to the opposite quarter of the ring.
func Clustered(n, k int) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	homes := make([]int, k)
	for i := range homes {
		homes[i] = i
	}
	return homes, nil
}

// Uniform places k agents already uniformly (gaps ⌊n/k⌋ or ⌈n/k⌉): the
// symmetry degree is k when n ≡ 0 (mod k).
func Uniform(n, k int) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	homes := make([]int, k)
	for i := range homes {
		// i-th target of the canonical schedule with a single base at 0.
		off := i*(n/k) + min(i, n%k)
		homes[i] = off
	}
	return homes, nil
}

// PeriodicWithDegree builds an initial configuration whose distance
// sequence has symmetry degree exactly l. It requires l | k and l | n,
// k/l >= 1, and enough room for an aperiodic fundamental gap pattern
// (if k/l == 1 the fundamental is a single gap, trivially aperiodic).
// The fundamental pattern is randomized via rng.
func PeriodicWithDegree(n, k, l int, rng *rand.Rand) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	if l < 1 || k%l != 0 || n%l != 0 {
		return nil, fmt.Errorf("%w: degree %d must divide k=%d and n=%d", ErrBadShape, l, k, n)
	}
	kf, nf := k/l, n/l
	if kf > nf {
		return nil, fmt.Errorf("%w: fundamental needs %d agents in %d nodes", ErrBadShape, kf, nf)
	}
	fund, err := aperiodicGaps(nf, kf, rng)
	if err != nil {
		return nil, err
	}
	gaps := seq.Repeat(fund, l)
	homes := make([]int, k)
	at := 0
	for i := range homes {
		homes[i] = at
		at += gaps[i]
	}
	if at != n {
		return nil, fmt.Errorf("%w: gaps sum to %d, want %d", ErrBadShape, at, n)
	}
	if got := seq.SymmetryDegree(gaps); got != l {
		return nil, fmt.Errorf("%w: generated degree %d, want %d", ErrBadShape, got, l)
	}
	return homes, nil
}

// aperiodicGaps produces kf positive gaps summing to nf whose sequence
// is aperiodic. For kf == 1 any single gap is aperiodic. For kf >= 2 it
// retries random compositions until one is aperiodic, falling back to a
// deterministic staircase.
func aperiodicGaps(nf, kf int, rng *rand.Rand) ([]int, error) {
	if kf == 1 {
		return []int{nf}, nil
	}
	if nf == kf {
		// All gaps are 1: unavoidably periodic for kf >= 2.
		return nil, fmt.Errorf("%w: fundamental ring full (n/l == k/l)", ErrBadShape)
	}
	for attempt := 0; attempt < 64; attempt++ {
		gaps := randomComposition(nf, kf, rng)
		if !seq.IsPeriodic(gaps) {
			return gaps, nil
		}
	}
	// Deterministic fallback: one oversized gap first. (g, 1, 1, ..., 1)
	// with g > 1 is aperiodic.
	gaps := make([]int, kf)
	for i := range gaps {
		gaps[i] = 1
	}
	gaps[0] = nf - (kf - 1)
	if seq.IsPeriodic(gaps) {
		return nil, fmt.Errorf("%w: cannot build aperiodic fundamental (n/l=%d k/l=%d)", ErrBadShape, nf, kf)
	}
	return gaps, nil
}

// randomComposition returns kf positive integers summing to nf,
// uniformly over compositions.
func randomComposition(nf, kf int, rng *rand.Rand) []int {
	// Choose kf-1 distinct cut points in (0, nf).
	cuts := rng.Perm(nf - 1)[: kf-1 : kf-1]
	chosen := append([]int(nil), cuts...)
	for i := range chosen {
		chosen[i]++
	}
	slices.Sort(chosen)
	gaps := make([]int, kf)
	prev := 0
	for i, c := range chosen {
		gaps[i] = c - prev
		prev = c
	}
	gaps[kf-1] = nf - prev
	return gaps
}

// TwoClusters splits k agents into two contiguous groups on opposite
// sides of the ring — a shape with symmetry degree up to 2 that
// stresses the base-node tie-breaking.
func TwoClusters(n, k int) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	half := k / 2
	if half+(k-half) > n/2 {
		return nil, fmt.Errorf("%w: clusters of %d do not fit", ErrBadShape, k)
	}
	homes := make([]int, 0, k)
	for i := 0; i < half; i++ {
		homes = append(homes, i)
	}
	for i := 0; i < k-half; i++ {
		homes = append(homes, n/2+i)
	}
	return homes, nil
}

// Geometric places agents with geometrically growing gaps (1, 2, 4, …
// as far as they fit), a maximally asymmetric configuration (symmetry
// degree 1 for k >= 2).
func Geometric(n, k int) ([]int, error) {
	if err := validate(n, k); err != nil {
		return nil, err
	}
	homes := make([]int, k)
	at, gap := 0, 1
	for i := 0; i < k; i++ {
		if at >= n {
			return nil, fmt.Errorf("%w: geometric gaps overflow n=%d at agent %d", ErrBadShape, n, i)
		}
		homes[i] = at
		at += gap
		if gap < n/4+1 {
			gap *= 2
		}
	}
	return homes, nil
}

// Fig9 returns the n=27, k=9 configuration of Fig 9: an aperiodic ring
// containing a 4-times-repeated subsequence, so one agent misestimates
// the ring size and must be corrected during the patrolling phase.
// The gap sequence is (11, 1, 3, 1, 3, 1, 3, 1, 3).
func Fig9() (n int, homes []int) {
	gaps := []int{11, 1, 3, 1, 3, 1, 3, 1, 3}
	homes = make([]int, len(gaps))
	at := 0
	for i := range gaps {
		homes[i] = at
		at += gaps[i]
	}
	return at, homes
}

// Pumped builds the Theorem 5 / Fig 7 construction: given a base
// configuration (n nodes, homes) it returns a ring of (copies+pad)*n
// nodes where the home pattern is repeated `copies` times over the
// first copies*n nodes and the remaining pad*n nodes are empty.
func Pumped(n int, homes []int, copies, pad int) (int, []int, error) {
	if copies < 1 || pad < 0 {
		return 0, nil, fmt.Errorf("%w: copies=%d pad=%d", ErrBadShape, copies, pad)
	}
	bigN := (copies + pad) * n
	out := make([]int, 0, copies*len(homes))
	for c := 0; c < copies; c++ {
		for _, h := range homes {
			out = append(out, c*n+h)
		}
	}
	return bigN, out, nil
}
