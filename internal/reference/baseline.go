package reference

// FirstFit is the uncoordinated scatter baseline (internal/baseline):
// hunt stride points of ⌊n/k⌋ for at most 2k hops, always striding at
// least once, and park at the first vacant one or wherever the hunt
// gives up.
func FirstFit(n, k int) Func {
	return func(api API) error {
		api.Meter().Set(4)
		stride := max(n/k, 1)
		for hop := 0; hop < 2*k; hop++ {
			for i := 0; i < stride; i++ {
				api.Move()
			}
			if api.AgentsHere() == 0 {
				return nil
			}
		}
		return nil // park wherever we are; likely not uniform
	}
}
