package verify

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGaps(t *testing.T) {
	got := Gaps(16, []int{0, 4, 8, 12})
	if want := []int{4, 4, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps = %v, want %v", got, want)
	}
	got = Gaps(10, []int{7, 2})
	if want := []int{5, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps = %v, want %v", got, want)
	}
	if got := Gaps(5, nil); got != nil {
		t.Errorf("Gaps(empty) = %v, want nil", got)
	}
	// Single agent: full-circle gap.
	got = Gaps(9, []int{4})
	if want := []int{9}; !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps single = %v, want %v", got, want)
	}
}

func TestIsUniformFig2(t *testing.T) {
	// Fig 2: n=16, k=4, d=4 (the figure caption says d=3 counting
	// intermediate nodes; gaps in our convention are n/k=4).
	if !IsUniform(16, []int{0, 4, 8, 12}) {
		t.Error("Fig 2 configuration must be uniform")
	}
	if IsUniform(16, []int{0, 4, 8, 13}) {
		t.Error("perturbed Fig 2 must not be uniform")
	}
}

func TestIsUniformUnevenDivision(t *testing.T) {
	// n=10, k=3: gaps must be two 3s and one 4.
	if !IsUniform(10, []int{0, 3, 6}) {
		t.Error("(0,3,6) on 10-ring must be uniform (gaps 3,3,4)")
	}
	if !IsUniform(10, []int{1, 4, 8}) {
		t.Error("(1,4,8) on 10-ring must be uniform (gaps 3,4,3)")
	}
	if IsUniform(10, []int{0, 5, 6}) {
		t.Error("(0,5,6) has a gap of 5")
	}
	// Correct gap multiset has exactly n mod k wide gaps: (0,3,7) has
	// gaps 3,4,3 -> fine; (0,4,8)? gaps 4,4,2 -> reject.
	if IsUniform(10, []int{0, 4, 8}) {
		t.Error("(0,4,8) has gaps 4,4,2")
	}
}

func TestIsUniformRejectsDuplicates(t *testing.T) {
	if IsUniform(8, []int{1, 1}) {
		t.Error("duplicate positions must not be uniform")
	}
}

func TestIsUniformSingleAgent(t *testing.T) {
	if !IsUniform(7, []int{3}) {
		t.Error("single agent is trivially uniform")
	}
}

func TestExplainNonUniformMessages(t *testing.T) {
	cases := []struct {
		n   int
		pos []int
	}{
		{5, nil},
		{2, []int{0, 1, 1}},
		{8, []int{9}},
		{8, []int{-1}},
		{8, []int{3, 3}},
		{8, []int{0, 1}},
	}
	for _, c := range cases {
		if why := ExplainNonUniform(c.n, c.pos); why == "" {
			t.Errorf("ExplainNonUniform(%d, %v) = \"\", want a reason", c.n, c.pos)
		}
	}
}

func TestIsUniformInvariantUnderRotation(t *testing.T) {
	f := func(nRaw, kRaw, shiftRaw uint8) bool {
		n := int(nRaw%40) + 2
		k := int(kRaw)%n + 1
		shift := int(shiftRaw) % n
		rng := rand.New(rand.NewSource(int64(nRaw)*7919 + int64(kRaw)))
		// Build a uniform placement, then rotate: must stay uniform.
		pos := make([]int, k)
		start := rng.Intn(n)
		for i := 0; i < k; i++ {
			off := i*(n/k) + min(i, n%k)
			pos[i] = (start + off) % n
		}
		if !IsUniform(n, pos) {
			return false
		}
		rot := make([]int, k)
		for i, p := range pos {
			rot[i] = (p + shift) % n
		}
		return IsUniform(n, rot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGapsSumToN(t *testing.T) {
	f := func(nRaw uint8, posRaw []uint8) bool {
		n := int(nRaw%50) + 1
		seen := map[int]bool{}
		var pos []int
		for _, p := range posRaw {
			v := int(p) % n
			if !seen[v] {
				seen[v] = true
				pos = append(pos, v)
			}
		}
		if len(pos) == 0 {
			return true
		}
		total := 0
		for _, g := range Gaps(n, pos) {
			total += g
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
