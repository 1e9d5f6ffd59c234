// Package reference holds the paper-shaped form of the algorithms the
// production code runs as frames, and the coroutine adapter that hosts
// such a form on the engine. Only tests import it; the root package's
// TestReferenceIsTestOnly fails if any other file does.
//
// internal/core and internal/baseline write each algorithm as a
// sim.Frame, stepped once per atomic action: fast and checkpointable,
// but unlike the paper's pseudocode. The bodies here (Alg1, Alg2,
// Relaxed, Naive, BiNative, FirstFit) are the same algorithms written
// sequentially, with a blocking call wherever the paper's agent ends an
// atomic action. They are the semantics of record: the root
// cross-checks (TestFrameCoroutineCrossCheck and its variants,
// TestCheckpointRestoreCrossCheck), the explorer's from-root referee,
// netsim's cross-validations and core's SelectionStats parity hold the
// frames to them.
//
// # The adapter
//
// Program hosts a Func on the engine. Each agent's frame starts its
// body on an iter.Pull coroutine at the first Step; every Step resumes
// the body until its next blocking call (Move, MoveVia, AwaitMessages)
// yields the sim.Action a frame would return, or until it returns
// (ActionDone with its error). A panic in the body comes back out of
// Step, where the engine recovers it as it recovers a frame's. A parked
// body keeps its goroutine until the test that built the Program ends:
// each started coroutine's stop is registered with the test's Cleanup,
// and stopping unwinds the body. A body's state is a goroutine stack,
// so the adapter's SaveState and LoadState panic: no test checkpoints a
// reference engine or runs one on netsim.
//
// # Equivalence contract
//
// What keeps a frame byte-identical to its body in traces and state
// hashes:
//
//   - A frame's Step makes the same API calls the body makes between
//     two consecutive blocking calls. The engine folds the action's own
//     opcode (opMove, opAwait) after its last observation for both.
//   - AwaitMessages suspends and, on the wake, drains the inbox with
//     Messages(). A frame suspends by returning ActionAwait without
//     reading the inbox, which is empty then (an arrival's always is):
//     reading it would fold an opMessages entry the body never folds.
//   - The Step of a wake calls Messages() before any other observation,
//     as AwaitMessages drains the inbox as soon as it resumes. Messages
//     left unread when Step returns are dropped, as at the end of a
//     body's action.
//   - A body broadcasts the very types its frame broadcasts
//     (core.DeployMsg, core.PatrolMsg): the state hash folds a payload
//     with its Go type name.
package reference
