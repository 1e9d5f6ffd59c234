package verify

import (
	"fmt"
	"slices"

	"agentring/internal/sim"
)

// Gaps returns the sorted cyclic gaps between the given positions on an
// n-ring. Positions must be distinct; duplicates yield a zero gap, which
// the uniformity check rejects anyway.
func Gaps(n int, positions []int) []int {
	k := len(positions)
	if k == 0 {
		return nil
	}
	sorted := slices.Clone(positions)
	slices.Sort(sorted)
	gaps := make([]int, k)
	for i := 0; i < k; i++ {
		next := sorted[(i+1)%k]
		gap := next - sorted[i]
		if i == k-1 {
			gap = next + n - sorted[i]
		}
		gaps[i] = gap
	}
	return gaps
}

// IsUniform reports whether positions satisfy the uniform-deployment
// condition on an n-ring: distinct nodes with every adjacent gap equal
// to ⌊n/k⌋ or ⌈n/k⌉. With k = 1 the single agent is trivially uniform.
func IsUniform(n int, positions []int) bool {
	return ExplainNonUniform(n, positions) == ""
}

// ExplainNonUniform returns "" when positions are uniformly deployed,
// or a human-readable reason otherwise (for test diagnostics).
func ExplainNonUniform(n int, positions []int) string {
	k := len(positions)
	if k == 0 {
		return "no agents"
	}
	if k > n {
		return fmt.Sprintf("%d agents exceed %d nodes", k, n)
	}
	seen := make(map[int]bool, k)
	for _, p := range positions {
		if p < 0 || p >= n {
			return fmt.Sprintf("position %d out of range", p)
		}
		if seen[p] {
			return fmt.Sprintf("two agents share node %d", p)
		}
		seen[p] = true
	}
	lo, hi := n/k, n/k
	if n%k != 0 {
		hi++
	}
	wide := 0
	for _, g := range Gaps(n, positions) {
		switch g {
		case lo:
		case hi:
			wide++
		default:
			return fmt.Sprintf("gap %d not in {%d,%d} (gaps %v)", g, lo, hi, Gaps(n, positions))
		}
	}
	// Exactly n mod k gaps must be wide; with n%k == 0, lo == hi and
	// wide counts every gap, which is fine.
	if n%k != 0 && wide != n%k {
		return fmt.Sprintf("%d wide gaps, want %d", wide, n%k)
	}
	return ""
}

// CheckDefinition1 verifies the uniform deployment problem *with*
// termination detection (Definition 1) against a run result: all agents
// halted, all link queues empty, positions uniform.
func CheckDefinition1(n int, res sim.Result) error {
	if !res.AllHalted() {
		return fmt.Errorf("verify: not all agents halted")
	}
	if !res.QueuesEmpty {
		return fmt.Errorf("verify: link queues not empty")
	}
	if why := ExplainNonUniform(n, res.Positions()); why != "" {
		return fmt.Errorf("verify: not uniform: %s", why)
	}
	return nil
}

// CheckDefinition2 verifies the uniform deployment problem *without*
// termination detection (Definition 2): all agents suspended, all link
// queues and mailboxes empty, positions uniform.
func CheckDefinition2(n int, res sim.Result) error {
	if !res.AllSuspended() {
		return fmt.Errorf("verify: not all agents suspended")
	}
	if !res.QueuesEmpty {
		return fmt.Errorf("verify: link queues not empty")
	}
	if !res.MailboxesEmpty {
		return fmt.Errorf("verify: mailboxes not empty")
	}
	if why := ExplainNonUniform(n, res.Positions()); why != "" {
		return fmt.Errorf("verify: not uniform: %s", why)
	}
	return nil
}
