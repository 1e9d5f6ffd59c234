package sim

import (
	"fmt"
	"hash/fnv"
)

// API opcodes folded into an agent's history hash. Every call is
// folded, not just the ones returning values: a program's internal
// state can depend on how many result-less calls it made (a loop of
// bare Move()s advances a loop counter no observation reflects), so the
// hash must count them to stay a faithful fingerprint of the program's
// interaction sequence.
const (
	opTokens uint64 = iota + 1
	opAgents
	opMessages
	opMove
	opRelease
	opBroadcast
	opAwait
	opOutDegree
	opArrivalPort
)

// fold mixes v into the running hash h with one splitmix64 finalizer
// round (full 64-bit avalanche in two multiplies). It hashes the
// agents' observation histories — programs are deterministic, so
// folding the full ordered sequence of API calls and observed values
// identifies an agent's internal state up to 64-bit collisions — and
// builds the configuration key's terms below.
//
// fold(h, v) depends only on the sum h+v, so adding two fields into one
// argument aliases them: fold(h, a+b) cannot tell (a, b) from
// (a+1, b-1). A term must therefore give every field its own fold, or
// pack fields into disjoint bit ranges of one argument. Hash values are
// never persisted or pinned — only compared within one process — so the
// mixer is free to change between versions.
func fold(h, v uint64) uint64 {
	x := h + v + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashPayload digests an arbitrary message payload through its printed
// representation (type-tagged so distinct types with equal prints stay
// distinct). Payloads must therefore print deterministically — true of
// the value-struct messages the algorithms exchange, and of anything
// without map fields.
func hashPayload(m Message) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T:%v", m, m)
	return h.Sum64()
}

// The configuration key is the XOR of one term per component of the
// configuration (Zobrist hashing: A. Zobrist, "A new hashing method with
// application for game playing", TR 88, U. Wisconsin, 1970), so an
// atomic action updates it by XORing out the terms it changes and XORing
// in their replacements. Each family starts from its own tag, and each
// term encodes its fields injectively: every field has its own fold or
// its own bit range of a fold argument. The ranges hold because the
// engine stores agent ids, nodes and edge ranks as int32, so each is
// below 2^31. No two terms of one configuration can then coincide, so
// XOR never cancels a live component.
const (
	tagAgent uint64 = 0x243f6a8885a308d3
	tagQueue uint64 = 0x13198a2e03707344
	tagToken uint64 = 0xa4093822299f31d0
	tagDown  uint64 = 0x082efa98ec4e6c89
	tagAdv   uint64 = 0x452821e638d01377
)

// agentTerm is agent id's term: its status, the node it stays at (-1
// while in transit) and its state hash (Configuration.AgentHashes). The
// id, node+1 and status (1..3) fill the bit ranges [33,64), [2,33) and
// [0,2) of one fold argument.
func agentTerm(id int, st Status, node int, hash uint64) uint64 {
	return fold(fold(tagAgent, uint64(id)<<33|uint64(node+1)<<2|uint64(st)), hash)
}

// queueSeed is the rank-r edge's share of its queue terms, folded once
// per queue operation.
func queueSeed(r int) uint64 { return fold(tagQueue, uint64(r)) }

// queueTerm is the term of agent id queued behind pred (-1 at the head)
// on the edge seed belongs to; the predecessor links encode the queue's
// order. The id and pred+1 fill the two 32-bit halves of the argument.
func queueTerm(seed uint64, id, pred int) uint64 {
	return fold(seed, uint64(id)<<32|uint64(pred+1))
}

// tokenTerm is node v's term when it holds t tokens; nodes without
// tokens contribute nothing.
func tokenTerm(v, t int) uint64 {
	if t == 0 {
		return 0
	}
	return fold(fold(tagToken, uint64(v)), uint64(t))
}

// downTerm is the term of the failed rank-r edge.
func downTerm(r int) uint64 { return fold(tagDown, uint64(r)) }

// advTerm starts the online adversary's term from its spent fail count;
// advAge folds in the next down link's relative age, in rank order.
func advTerm(fails int) uint64 { return fold(tagAdv, uint64(fails)) }

func advAge(h uint64, age int) uint64 { return fold(h, uint64(age)) }
