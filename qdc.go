package qdc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"qdc/internal/bounds"
	"qdc/internal/comm"
	"qdc/internal/dist/disjointness"
	"qdc/internal/dist/engine"
	"qdc/internal/dist/mst"
	"qdc/internal/dist/verify"
	"qdc/internal/gadgets"
	"qdc/internal/graph"
	"qdc/internal/lbnetwork"
	"qdc/internal/simulation"
)

// ErrBadParameters reports invalid experiment parameters.
var ErrBadParameters = errors.New("qdc: invalid parameters")

// VerificationLowerBound returns the Ω(√(n/(B log n))) quantum round lower
// bound of Theorem 3.6 / Corollary 3.7.
func VerificationLowerBound(n, bandwidth int) float64 {
	return bounds.VerificationLowerBound(float64(n), float64(bandwidth))
}

// MSTLowerBound returns the Ω(min(W/α, √n)/√(B log n)) quantum round lower
// bound of Theorem 3.8 / Corollary 3.9.
func MSTLowerBound(n, bandwidth int, aspectRatio, alpha float64) float64 {
	return bounds.OptimizationLowerBound(float64(n), float64(bandwidth), aspectRatio, alpha)
}

// Figure2Table returns the evaluated Figure 2 table.
func Figure2Table(n, bandwidth int, aspectRatio, alpha float64) ([]bounds.Figure2Row, error) {
	return bounds.Figure2Table(n, bandwidth, aspectRatio, alpha)
}

// Figure3Curve returns the evaluated Figure 3 curves.
func Figure3Curve(n, bandwidth int, diameter, alpha float64, ws []float64) ([]bounds.Figure3Point, error) {
	return bounds.Figure3Curve(n, bandwidth, diameter, alpha, ws)
}

// ServerModelTable returns the evaluated server-model hardness table
// (Theorem 3.4 / Theorem 6.1 / Corollary 3.10).
func ServerModelTable(n int) []bounds.ServerModelRow {
	return bounds.ServerModelTable(n)
}

// ProofPipelineResult is the outcome of running the paper's full proof
// pipeline (Figure 1) on one concrete instance.
type ProofPipelineResult struct {
	// InputBits is the IPmod3 input length n.
	InputBits int
	// IPMod3Value is the function value (1 iff Σ x_i·y_i ≡ 0 mod 3).
	IPMod3Value int
	// GadgetNodes is the size of the Ham instance produced by the
	// Section 7 reduction.
	GadgetNodes int
	// GadgetIsHamiltonian reports whether the reduction output is a
	// Hamiltonian cycle (must equal IPMod3Value == 0).
	GadgetIsHamiltonian bool
	// ServerLowerBoundBits is the Ω(n) server-model bound transported
	// through the reduction.
	ServerLowerBoundBits float64
	// NetworkNodes and NetworkDiameter describe the lower-bound network the
	// instance is embedded into.
	NetworkNodes, NetworkDiameter int
	// EmbeddedMatchesGadget reports Observation 8.1/D.3: the embedded
	// subnetwork M is Hamiltonian exactly when the gadget graph is.
	EmbeddedMatchesGadget bool
	// SimulationReport is the Theorem 3.5 accounting for the O(D)-round
	// degree-two check run on the embedded instance.
	SimulationReport simulation.Report
	// DistributedLowerBound is the resulting Ω(√(n/(B log n))) bound for the
	// network size used.
	DistributedLowerBound float64
}

// RunProofPipeline executes the whole chain of Figure 1 on a random IPmod3
// instance of the given length: gadget reduction, server-model bound,
// embedding into the lower-bound network, and the three-party simulation of
// a fast distributed algorithm, verifying the structural facts along the way.
func RunProofPipeline(inputBits, bandwidth int, seed int64) (*ProofPipelineResult, error) {
	if inputBits < 1 || bandwidth < 64 {
		return nil, fmt.Errorf("%w: inputBits=%d bandwidth=%d (need >=1 and >=64)", ErrBadParameters, inputBits, bandwidth)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]int, inputBits)
	y := make([]int, inputBits)
	for i := range x {
		x[i] = rng.Intn(2)
		y[i] = rng.Intn(2)
	}
	ip, err := gadgets.IPMod3Value(x, y)
	if err != nil {
		return nil, err
	}
	red, err := gadgets.IPMod3ToHam(x, y)
	if err != nil {
		return nil, err
	}

	// Embed the gadget instance into a lower-bound network whose endpoint
	// count, paths plus highways, equals the gadget graph's vertex count.
	const pathLen = 17
	_, highways := lbnetwork.RoundedDims(pathLen)
	nw, err := lbnetwork.New(red.NumNodes()-highways, pathLen)
	if err != nil {
		return nil, err
	}
	emb, err := nw.Embed(red.CarolEdges.Pairs(), red.DavidEdges.Pairs())
	if err != nil {
		return nil, err
	}

	runner, err := simulation.NewRunner(nw, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if _, err := verify.DegreeTwoCheck(runner, nw.Graph, emb.M); err != nil {
		return nil, err
	}

	return &ProofPipelineResult{
		InputBits:             inputBits,
		IPMod3Value:           ip,
		GadgetNodes:           red.NumNodes(),
		GadgetIsHamiltonian:   red.IsHamiltonian(),
		ServerLowerBoundBits:  comm.IPMod3ServerLowerBound(inputBits),
		NetworkNodes:          nw.N(),
		NetworkDiameter:       nw.Graph.Diameter(),
		EmbeddedMatchesGadget: emb.MIsHamiltonian() == red.IsHamiltonian(),
		SimulationReport:      runner.Report(),
		DistributedLowerBound: VerificationLowerBound(nw.N(), bandwidth),
	}, nil
}

// MSTExperimentResult is one measured point of the Figure 3 experiment.
type MSTExperimentResult struct {
	// Nodes and Diameter describe the network instance.
	Nodes, Diameter int
	// AspectRatio is the weight aspect ratio W of the instance.
	AspectRatio float64
	// Alpha is the approximation factor used.
	Alpha float64
	// ExactRounds and ApproxRounds are the measured round counts.
	ExactRounds, ApproxRounds int
	// ApproxRatio is the measured weight ratio of the α-approximate tree to
	// the optimum.
	ApproxRatio float64
	// LowerBound and UpperBound are the Figure 3 formula curves at this W.
	LowerBound, UpperBound float64
}

// RunMSTExperiment builds a lower-bound network with the given shape,
// assigns random weights with aspect ratio at most W, and measures the
// distributed exact and α-approximate MST algorithms against the Figure 3
// bounds.
func RunMSTExperiment(gamma, pathLen, bandwidth int, aspectRatio, alpha float64, seed int64) (*MSTExperimentResult, error) {
	if gamma < 2 || pathLen < 3 || aspectRatio < 1 || alpha < 1 {
		return nil, fmt.Errorf("%w: gamma=%d L=%d W=%g alpha=%g", ErrBadParameters, gamma, pathLen, aspectRatio, alpha)
	}
	nw, err := lbnetwork.New(gamma, pathLen)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	weighted, err := graph.AssignRandomWeights(nw.Graph, aspectRatio, rng)
	if err != nil {
		return nil, err
	}
	_, optimal := weighted.KruskalMST()

	exactRunner, err := engine.NewLocal(weighted, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	exact, err := mst.Run(exactRunner, weighted, mst.Config{})
	if err != nil {
		return nil, err
	}
	approxRunner, err := engine.NewLocal(weighted, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	approx, err := mst.Run(approxRunner, weighted, mst.Config{Alpha: alpha})
	if err != nil {
		return nil, err
	}
	diameter := nw.Graph.Diameter()
	return &MSTExperimentResult{
		Nodes:        weighted.N(),
		Diameter:     diameter,
		AspectRatio:  aspectRatio,
		Alpha:        alpha,
		ExactRounds:  exact.Stats.Rounds,
		ApproxRounds: approx.Stats.Rounds,
		ApproxRatio:  approx.OriginalWeight / optimal,
		LowerBound:   MSTLowerBound(weighted.N(), bandwidth, aspectRatio, alpha),
		UpperBound:   bounds.MSTUpperBound(float64(weighted.N()), float64(diameter), aspectRatio, alpha),
	}, nil
}

// VerificationExperimentResult is one measured row of the Corollary 3.7
// experiment.
type VerificationExperimentResult struct {
	// Problem is the verification problem name.
	Problem string
	// Answer is the verification verdict on the instance.
	Answer bool
	// Rounds is the measured round count.
	Rounds int
	// LowerBound and UpperBound are the formula curves for this network.
	LowerBound, UpperBound float64
}

// RunVerificationExperiment measures the distributed verification algorithms
// on an embedded Hamiltonian (or k-cycle) instance of the lower-bound
// network.
func RunVerificationExperiment(gamma, pathLen, bandwidth, cycles int, seed int64) ([]VerificationExperimentResult, error) {
	if gamma < 2 || pathLen < 3 || cycles < 1 {
		return nil, fmt.Errorf("%w: gamma=%d L=%d cycles=%d", ErrBadParameters, gamma, pathLen, cycles)
	}
	nw, err := lbnetwork.New(gamma, pathLen)
	if err != nil {
		return nil, err
	}
	u := nw.EndpointCount()
	if u%2 != 0 {
		return nil, fmt.Errorf("%w: Γ+K=%d must be even; adjust gamma", ErrBadParameters, u)
	}
	var ec, ed [][2]int
	if cycles == 1 {
		ec, ed, err = graph.CyclePairings(u)
	} else {
		ec, ed, err = graph.KCyclePairings(u, cycles)
	}
	if err != nil {
		return nil, err
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		return nil, err
	}
	diameter := nw.Graph.Diameter()
	lb := VerificationLowerBound(nw.N(), bandwidth)
	ub := bounds.VerificationUpperBound(float64(nw.N()), float64(diameter))

	type problem struct {
		name string
		run  func(r engine.Runner) (*verify.Outcome, error)
	}
	problems := []problem{
		{"Hamiltonian cycle", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.HamiltonianCycle(r, nw.Graph, emb.M)
		}},
		{"spanning connected subgraph", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.SpanningConnectedSubgraph(r, nw.Graph, emb.M)
		}},
		{"connectivity", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.Connectivity(r, nw.Graph, emb.M)
		}},
		{"spanning tree", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.SpanningTree(r, nw.Graph, emb.M)
		}},
		{"bipartiteness", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.Bipartiteness(r, nw.Graph, emb.M)
		}},
		{"cycle containment", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.CycleContainment(r, nw.Graph, emb.M)
		}},
		{"degree-two check (O(D))", func(r engine.Runner) (*verify.Outcome, error) {
			return verify.DegreeTwoCheck(r, nw.Graph, emb.M)
		}},
	}
	out := make([]VerificationExperimentResult, 0, len(problems))
	for _, p := range problems {
		r, err := engine.NewLocal(nw.Graph, bandwidth, seed)
		if err != nil {
			return nil, err
		}
		res, err := p.run(r)
		if err != nil {
			return nil, fmt.Errorf("qdc: %s: %w", p.name, err)
		}
		out = append(out, VerificationExperimentResult{
			Problem:    p.name,
			Answer:     res.Answer,
			Rounds:     res.Stats.Rounds,
			LowerBound: lb,
			UpperBound: ub,
		})
	}
	return out, nil
}

// SimulationExperiment runs the Theorem 3.5 accounting experiment on a
// lower-bound network of the given shape and returns the report of the
// degree-two check executed under the three-party simulation.
func SimulationExperiment(gamma, pathLen, bandwidth int, seed int64) (*simulation.Report, error) {
	nw, err := lbnetwork.New(gamma, pathLen)
	if err != nil {
		return nil, err
	}
	u := nw.EndpointCount()
	if u%2 != 0 {
		return nil, fmt.Errorf("%w: Γ+K=%d must be even; adjust gamma", ErrBadParameters, u)
	}
	ec, ed, err := graph.CyclePairings(u)
	if err != nil {
		return nil, err
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		return nil, err
	}
	runner, err := simulation.NewRunner(nw, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if _, err := verify.DegreeTwoCheck(runner, nw.Graph, emb.M); err != nil {
		return nil, err
	}
	rep := runner.Report()
	return &rep, nil
}

// DisjointnessComparison is one row of the Example 1.1 experiment.
type DisjointnessComparison struct {
	// InputBits is b, the length of the strings held by the two nodes.
	InputBits int
	// Distance is the hop distance between the two nodes.
	Distance int
	// ClassicalRounds and QuantumRounds are the cost-model round counts.
	ClassicalRounds, QuantumRounds int
	// MeasuredClassicalRounds is the round count of the real CONGEST run of
	// the pipelining protocol (0 when the instance is too large to run).
	MeasuredClassicalRounds int
	// CrossoverDiameter is the closed-form smallest distance at which the
	// classical pipeline is at least as fast (bounds formula). When the
	// quantum protocol never loses it is math.MaxInt32, the same sentinel
	// the integer formula uses, so the struct stays JSON-marshalable.
	CrossoverDiameter float64
	// QuantumWins reports whether the quantum protocol needs fewer rounds.
	QuantumWins bool
}

// RunDisjointnessComparison evaluates Example 1.1 at the given input length
// and distance (bandwidth counts bits per round on each link).
func RunDisjointnessComparison(inputBits, bandwidth, distance int, seed int64) (*DisjointnessComparison, error) {
	if inputBits < 1 || bandwidth < 1 || distance < 1 {
		return nil, fmt.Errorf("%w: b=%d B=%d D=%d", ErrBadParameters, inputBits, bandwidth, distance)
	}
	out := &DisjointnessComparison{
		InputBits:         inputBits,
		Distance:          distance,
		ClassicalRounds:   disjointness.ClassicalRounds(inputBits, bandwidth, distance),
		QuantumRounds:     disjointness.QuantumRounds(inputBits, distance),
		CrossoverDiameter: bounds.DisjointnessCrossoverDiameter(float64(inputBits), float64(bandwidth)),
	}
	if math.IsInf(out.CrossoverDiameter, 1) {
		out.CrossoverDiameter = math.MaxInt32
	}
	out.QuantumWins = out.QuantumRounds < out.ClassicalRounds
	if inputBits <= 1024 && distance <= 256 {
		rng := rand.New(rand.NewSource(seed))
		x := make([]int, inputBits)
		y := make([]int, inputBits)
		for i := range x {
			x[i] = rng.Intn(2)
			y[i] = 1 - x[i]
		}
		res, err := disjointness.RunClassical(distance+1, bandwidth, x, y, seed)
		if err != nil {
			return nil, err
		}
		out.MeasuredClassicalRounds = res.Rounds
	}
	return out, nil
}
