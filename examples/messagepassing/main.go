// Messagepassing: agents as messages, the way the paper's model section
// says mobile agents are realized in practice.
//
// This example runs the same deployment twice: once on the
// deterministic coroutine engine (agentring.Run) and once on the
// concurrent message-passing substrate (agentring.RunConcurrent), where
// every ring node is a goroutine, links are FIFO channels, and each
// agent migrates between nodes as the saved state words of its
// algorithm's frame, rebuilt at every node it reaches. The algorithms'
// decisions depend only on the token geometry, so both substrates land
// every agent on the same node — which the example verifies, exiting
// non-zero if they differ.
package main

import (
	"fmt"
	"log"

	"agentring"
)

func main() {
	const n, k = 48, 8
	homes, err := agentring.RandomHomes(n, k, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-node ring, %d agents at %v\n\n", n, k, homes)

	serial, err := agentring.Run(agentring.Native, agentring.Config{N: n, Homes: homes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coroutine engine:     positions %v (%d moves)\n", serial.Positions, serial.TotalMoves)

	concurrent, err := agentring.RunConcurrent(agentring.Native, agentring.Config{N: n, Homes: homes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("message-passing run:  positions %v (%d moves)\n", concurrent.Positions, concurrent.TotalMoves)

	for i := range homes {
		if serial.Positions[i] != concurrent.Positions[i] {
			log.Fatalf("substrates diverged at agent %d: %d vs %d",
				i, serial.Positions[i], concurrent.Positions[i])
		}
	}
	fmt.Println("\nidentical positions: one agent semantics, two runtimes.")
	fmt.Println("(the concurrent one really runs node-per-goroutine with agents as envelopes of saved frame words)")
}
