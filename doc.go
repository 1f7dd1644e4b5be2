// Package qdc is the public facade of a reproduction of
//
//	Michael Elkin, Hartmut Klauck, Danupon Nanongkai, Gopal Pandurangan:
//	"Can Quantum Communication Speed Up Distributed Computation?", PODC 2014.
//
// The paper proves that for fundamental global problems — minimum spanning
// tree, minimum cut, shortest paths, and a long list of subgraph
// verification problems — quantum communication and shared entanglement
// cannot substantially speed up distributed CONGEST algorithms: the classical
// Ω̃(√n + D) round lower bounds survive in the quantum setting. The proof
// route is: nonlocal games → the Server model → gadget reductions to graph
// problems → the Quantum Simulation Theorem → distributed lower bounds.
//
// Every stage of that route is implemented and machine-checked in the
// internal packages:
//
//   - internal/graph      — graph substrate, reference algorithms, and the
//     streaming CSR builder million-node topologies are loaded through
//   - internal/congest    — the synchronous CONGEST(B) simulator
//     (allocation-free round loop that steps only awake nodes, word-encoded
//     message payloads)
//   - internal/quantum    — state-vector simulator (EPR, teleportation, Grover)
//   - internal/comm       — two-party and Server-model communication complexity
//   - internal/nonlocal   — XOR/AND games, CHSH, the Lemma 3.2 conversion
//   - internal/gadgets    — the IPmod3→Ham and Gap-Eq→Gap-Ham reductions
//   - internal/lbnetwork  — the Θ(log L)-diameter lower-bound network
//   - internal/simulation — the executable Quantum Simulation Theorem
//   - internal/dist/...   — distributed upper-bound algorithms (MST,
//     verification, Set Disjointness) on the engine.Runner execution layer
//   - internal/bounds     — the closed-form bounds of Figures 2 and 3
//
// # The internal/dist execution layer
//
// Every distributed algorithm is a CONGEST node program executed through the
// engine.Runner interface (internal/dist/engine): RunStage builds every
// node through the algorithm's factory, which hands each node program its
// input for the stage, runs the program to global termination, and
// accumulates a Stats total of stages, rounds, messages and bits (classical
// and quantum, accounted separately). Every backend runs the stage through
// one engine.Local; the re-accounting ones add a per-message trace:
//
//   - engine.NewLocal(topo, B, seed) — plain CONGEST(B) on any topology
//     (engine.NewParallel is the same accounting with rounds stepped
//     concurrently);
//   - engine.NewQuantum(topo, B, seed) — the third cost model: the same
//     classical execution re-accounted under the distributed-Grover round
//     formula of Example 1.1 (⌈√b⌉·D rounds of routed query registers), the
//     backend the experiment harness pairs against NewLocal to measure the
//     classical-vs-quantum Set Disjointness crossover directly;
//   - simulation.NewRunner(nw, B, seed) — the same execution on the
//     lower-bound network, additionally charged to the Carol/David/server
//     parties of the Quantum Simulation Theorem (Theorem 3.5).
//
// Because the algorithm code is backend-agnostic, the seven verification
// algorithms of internal/dist/verify, the exact and α-approximate MST of
// internal/dist/mst, and the Set Disjointness protocol of
// internal/dist/disjointness all run unchanged under any cost model; the
// degree-two check is the designated O(D)-round program that fits the
// theorem's L/2 − 2 round budget. See DESIGN.md for the system inventory and
// the engine/backends substitution table.
//
// # Quickstart
//
// examples/quickstart is the smallest end-to-end use of the library: it runs
// the distributed MST algorithm on a simulated network and compares the
// measured rounds against the paper's quantum lower bound. This package
// exposes the experiment drivers that regenerate the paper's figures and
// tables; cmd/qdcbench prints them, bench_test.go measures them, and the
// examples/ directory demonstrates the API on the paper's headline
// scenarios.
//
// Sweeps beyond the compiled-in registry are driven by the internal/exp
// harness through the same CLI: qdcbench accepts a JSON matrix spec
// (examples/matrix.json), runs deterministic disjoint shards of one sweep
// across processes or machines (-shard i/n), folds the shard outputs back
// into a canonical snapshot that is byte-identical to an unsharded run
// (qdcbench merge), and tracks per-scenario cost trajectories across a
// directory of snapshots (qdcbench trend).
package qdc
