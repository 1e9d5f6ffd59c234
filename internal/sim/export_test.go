package sim

// Exports for the external test package (sim_test), whose tests host
// internal/reference bodies: that package imports sim, so those tests
// cannot live in package sim.

// Walker is the walker test program.
func Walker(steps int) Program { return walker(steps) }

// RunRing runs programs from homes on an n-ring to quiescence, failing
// the test on any error.
var RunRing = run

// Chatty and Listener are the checkpoint fixture's test programs.
func Chatty(hops int) Program   { return &chatty{hops: hops} }
func Listener(want int) Program { return &listener{want: want} }

// MailOutsideWakeable returns an agent whose mailbox is nil while it is
// wakeable or non-nil while it is not, or -1: checkpoints flatten the
// wakeable agents' mailboxes only, so the two must agree.
func MailOutsideWakeable(e *Engine) int {
	for id := range e.mailbox {
		if (e.mailbox[id] != nil) != e.wakeable.has(id) {
			return id
		}
	}
	return -1
}

// ChoiceList returns the engine's kept enabled-choice list and whether
// it is current; RebuiltChoices rebuilds the list from the bitsets into
// a fresh slice. They are the two sides TestChoiceListMatchesRebuild
// compares.
func ChoiceList(e *Engine) ([]Choice, bool) { return e.choices, e.listed }
func RebuiltChoices(e *Engine) []Choice     { return e.enabledChoices(nil) }

// ListIndexes returns, per agent, the index at which the engine finds
// the agent's listed choice through its recorded slot, or -1 where it
// reports the agent unlisted.
func ListIndexes(e *Engine) []int {
	out := make([]int, len(e.at))
	for id := range out {
		out[id] = e.listIndex(id)
	}
	return out
}
