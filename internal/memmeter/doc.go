// Package memmeter provides word-level memory accounting for agent
// algorithms.
//
// The paper states per-agent memory bounds in bits (O(k log n),
// O(log n), O((k/l) log(n/l))). Each stored integer in the model is a
// "word" of ceil(log2 n) bits, so we meter the peak number of live
// words an agent keeps and derive the bit count from the word size of
// the instance. The algorithms in internal/core call Grow/Shrink/Set
// around their state so the asymptotic claims of Table 1 are measured
// rather than asserted (meter_test.go pins the accounting; the
// matrix/stats tests in internal/core and the sweeps in
// internal/experiments consume the measurements).
//
// # Invariants
//
// Peak never decreases and tracks the running live-word count exactly;
// metering is engine-agnostic state owned by the agent, so it survives
// suspension and checkpoints (the engine copies it with the agent
// tables) and costs the stepping loop nothing when untouched.
package memmeter
