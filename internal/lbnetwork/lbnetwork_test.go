package lbnetwork

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qdc/internal/graph"
)

// TestRoundUpPathLength pins RoundedDims's rounding: the smallest L >= the
// requested length with L−1 a power of two and L >= 3, and K = log₂(L−1),
// up to MaxPathLen.
func TestRoundUpPathLength(t *testing.T) {
	tests := []struct{ in, l, k int }{
		{-5, 3, 1}, {1, 3, 1}, {3, 3, 1}, {4, 5, 2}, {5, 5, 2}, {6, 9, 3}, {9, 9, 3}, {10, 17, 4},
		{17, 17, 4}, {100, 129, 7}, {MaxPathLen/2 + 1, MaxPathLen/2 + 1, 29}, {MaxPathLen, MaxPathLen + 1, 30},
	}
	for _, tc := range tests {
		if l, k := RoundedDims(tc.in); l != tc.l || k != tc.k {
			t.Errorf("RoundedDims(%d) = %d, %d; want %d, %d", tc.in, l, k, tc.l, tc.k)
		}
	}
}

// TestNewValidation: fewer than two paths, and a path longer than
// MaxPathLen, are refused before anything is built; 5e18 and MaxInt have
// no rounded length 2^k+1 in an int.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ gamma, pathLen int }{{1, 9}, {2, 5e18}, {2, math.MaxInt}, {2, MaxPathLen + 1}} {
		if _, err := New(tc.gamma, tc.pathLen); !errors.Is(err, ErrBadParams) {
			t.Errorf("New(%d, %d): err = %v, want ErrBadParams", tc.gamma, tc.pathLen, err)
		}
	}
}

// TestVertexCount pins the closed form against the constructor, including
// path lengths that New rounds up.
func TestVertexCount(t *testing.T) {
	for _, gamma := range []int{2, 3, 6, 10} {
		for _, l := range []int{1, 3, 4, 9, 10, 17, 33, 100} {
			nw, err := New(gamma, l)
			if err != nil {
				t.Fatal(err)
			}
			if got := VertexCount(gamma, l); got != nw.N() {
				t.Errorf("VertexCount(%d, %d) = %d, New builds %d", gamma, l, got, nw.N())
			}
		}
	}
}

// Observation D.2: the network has Θ(ΓL) vertices and diameter Θ(log L).
func TestObservationD2SizeAndDiameter(t *testing.T) {
	for _, tc := range []struct{ gamma, l int }{{4, 9}, {6, 17}, {8, 33}} {
		nw, err := New(tc.gamma, tc.l)
		if err != nil {
			t.Fatal(err)
		}
		if nw.L != tc.l {
			t.Fatalf("L = %d, want %d", nw.L, tc.l)
		}
		wantK := int(math.Round(math.Log2(float64(tc.l - 1))))
		if nw.K != wantK {
			t.Fatalf("K = %d, want %d", nw.K, wantK)
		}
		// Vertex count: Γ·L path vertices plus Σ_h ((L-1)/2^h + 1) highway vertices.
		highway := 0
		for h := 1; h <= nw.K; h++ {
			highway += (tc.l-1)/(1<<h) + 1
		}
		if nw.N() != tc.gamma*tc.l+highway {
			t.Fatalf("N = %d, want %d", nw.N(), tc.gamma*tc.l+highway)
		}
		if nw.N() < tc.gamma*tc.l || nw.N() > 3*tc.gamma*tc.l {
			t.Fatalf("N = %d not Θ(ΓL)", nw.N())
		}
		diam := nw.Graph.Diameter()
		if diam <= 0 {
			t.Fatal("network should be connected")
		}
		// Θ(log L): generous constant, but must be far below L.
		if diam > 6*wantK+6 {
			t.Fatalf("diameter %d too large for log L = %d", diam, wantK)
		}
		if diam >= tc.l-2 {
			t.Fatalf("diameter %d should be well below L = %d", diam, tc.l)
		}
	}
}

func TestDiameterGrowsLogarithmically(t *testing.T) {
	small, err := New(4, 17)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(4, 257)
	if err != nil {
		t.Fatal(err)
	}
	ds, db := small.Graph.Diameter(), big.Graph.Diameter()
	// L grows 16x; a Θ(log L) diameter should grow by roughly +4·const, not 16x.
	if db > 4*ds {
		t.Fatalf("diameter grew from %d to %d; not logarithmic", ds, db)
	}
}

func TestAccessors(t *testing.T) {
	nw, err := New(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.PathNode(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.PathNode(3, 0); !errors.Is(err, ErrBadParams) {
		t.Fatal("out-of-range path should fail")
	}
	if _, err := nw.HighwayNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.HighwayNode(0, 0); !errors.Is(err, ErrBadParams) {
		t.Fatal("highway index is 1-based")
	}
	left, right := nw.LeftEndpoints(), nw.RightEndpoints()
	if len(left) != nw.EndpointCount() || len(right) != nw.EndpointCount() {
		t.Fatalf("endpoint counts %d,%d want %d", len(left), len(right), nw.EndpointCount())
	}
	// Left endpoints are at position 0, right at L-1.
	for _, v := range left {
		if pos, ok := nw.PositionOf(v); !ok || pos != 0 {
			t.Fatalf("left endpoint %d at position %d", v, pos)
		}
	}
	for _, v := range right {
		if pos, ok := nw.PositionOf(v); !ok || pos != nw.L-1 {
			t.Fatalf("right endpoint %d at position %d", v, pos)
		}
	}
	if _, ok := nw.PositionOf(-1); ok {
		t.Fatal("invalid vertex should not have a position")
	}
	// Left endpoints form a clique.
	for i := 0; i < len(left); i++ {
		for j := i + 1; j < len(left); j++ {
			if !nw.Graph.HasEdge(left[i], left[j]) {
				t.Fatalf("left clique missing edge %d-%d", left[i], left[j])
			}
		}
	}
}

func TestOwnershipPartition(t *testing.T) {
	nw, err := New(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 Carol owns exactly the leftmost column, David the rightmost.
	for _, v := range nw.LeftEndpoints() {
		if nw.OwnerAt(v, 0) != OwnerCarol {
			t.Fatalf("left endpoint %d not owned by Carol at t=0", v)
		}
	}
	for _, v := range nw.RightEndpoints() {
		if nw.OwnerAt(v, 0) != OwnerDavid {
			t.Fatalf("right endpoint %d not owned by David at t=0", v)
		}
	}
	mid, err := nw.PathNode(1, nw.L/2)
	if err != nil {
		t.Fatal(err)
	}
	if nw.OwnerAt(mid, 0) != OwnerServer {
		t.Fatal("middle vertex should start with the server")
	}
	if nw.OwnerAt(mid, -3) != OwnerServer {
		t.Fatal("negative time clamps to 0")
	}
	// Frontiers grow monotonically and never overlap within the round bound.
	maxT := nw.MaxSimulationRounds()
	for tstep := 0; tstep <= maxT; tstep++ {
		carol, david := 0, 0
		for v := 0; v < nw.N(); v++ {
			switch nw.OwnerAt(v, tstep) {
			case OwnerCarol:
				carol++
			case OwnerDavid:
				david++
			}
		}
		wantPerSide := 0
		for pos := 0; pos <= tstep && pos < nw.L; pos++ {
			wantPerSide += nw.columnSize(pos)
		}
		if carol != wantPerSide {
			t.Fatalf("t=%d: Carol owns %d vertices, want %d", tstep, carol, wantPerSide)
		}
		if david == 0 || carol+david > nw.N() {
			t.Fatalf("t=%d: inconsistent ownership (carol=%d david=%d)", tstep, carol, david)
		}
	}
	if OwnerCarol.String() != "Carol" || OwnerDavid.String() != "David" || OwnerServer.String() != "Server" || Owner(9).String() == "" {
		t.Fatal("Owner.String broken")
	}
}

// columnSize counts the vertices in a column (test helper).
func (nw *Network) columnSize(pos int) int {
	count := 0
	for v := 0; v < nw.N(); v++ {
		if p, ok := nw.PositionOf(v); ok && p == pos {
			count++
		}
	}
	return count
}

func TestEmbedValidation(t *testing.T) {
	// Γ=5, L=9 gives K=3, so Γ+K=8 endpoint vertices (even, as perfect
	// matchings require).
	nw, err := New(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	u := nw.EndpointCount()
	good, _, err := graph.CyclePairings(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Embed(good[:1], good); !errors.Is(err, ErrBadMatching) {
		t.Fatal("short matching should fail")
	}
	bad := append([][2]int{}, good...)
	bad[0] = [2]int{0, 0}
	if _, err := nw.Embed(bad, good); !errors.Is(err, ErrBadMatching) {
		t.Fatal("self-pair should fail")
	}
	reuse := append([][2]int{}, good...)
	reuse[1] = good[0]
	if _, err := nw.Embed(reuse, good); !errors.Is(err, ErrBadMatching) {
		t.Fatal("vertex reuse should fail")
	}
}

// Observation 8.1 / D.3: the number of cycles of G equals the number of
// cycles of M; G Hamiltonian iff M Hamiltonian; G connected iff M connected.
func TestObservation81AndD3(t *testing.T) {
	nw, err := New(6, 17)
	if err != nil {
		t.Fatal(err)
	}
	u := nw.EndpointCount()

	// Single Hamiltonian cycle input.
	ec, ed, err := graph.CyclePairings(u)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := nw.Embed(ec, ed)
	if err != nil {
		t.Fatal(err)
	}
	if !emb.InputIsHamiltonian() || !emb.MIsHamiltonian() || !emb.MIsConnected() {
		t.Fatal("Hamiltonian input should embed to a Hamiltonian M")
	}
	if emb.InputCycleCount() != 1 || emb.MCycleCount() != 1 {
		t.Fatalf("cycle counts %d/%d, want 1/1", emb.InputCycleCount(), emb.MCycleCount())
	}

	// k-cycle inputs for several k.
	for k := 2; k <= u/4; k++ {
		ec, ed, err := graph.KCyclePairings(u, k)
		if err != nil {
			t.Fatal(err)
		}
		emb, err := nw.Embed(ec, ed)
		if err != nil {
			t.Fatal(err)
		}
		if emb.InputCycleCount() != k {
			t.Fatalf("k=%d: input has %d cycles", k, emb.InputCycleCount())
		}
		if emb.MCycleCount() != k {
			t.Fatalf("k=%d: M has %d cycles, want %d (Observation 8.1)", k, emb.MCycleCount(), k)
		}
		if emb.MIsHamiltonian() || emb.MIsConnected() {
			t.Fatalf("k=%d: M should be disconnected and non-Hamiltonian", k)
		}
	}
}

// Property: for random perfect matchings, cycle counts of G and M agree.
func TestQuickObservation81Random(t *testing.T) {
	nw, err := New(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	u := nw.EndpointCount()
	if u%2 != 0 {
		t.Fatalf("test setup: Γ+K = %d must be even", u)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ec, err := graph.RandomPerfectMatchingPairs(u, rng)
		if err != nil {
			return false
		}
		ed, err := graph.RandomPerfectMatchingPairs(u, rng)
		if err != nil {
			return false
		}
		emb, err := nw.Embed(ec, ed)
		if err != nil {
			return false
		}
		return emb.InputCycleCount() == emb.MCycleCount() &&
			emb.InputIsHamiltonian() == emb.MIsHamiltonian() &&
			emb.InputGraph.IsConnected() == emb.MIsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSimulationRounds(t *testing.T) {
	nw, err := New(3, 33)
	if err != nil {
		t.Fatal(err)
	}
	if nw.MaxSimulationRounds() != 33/2-2 {
		t.Fatalf("MaxSimulationRounds = %d", nw.MaxSimulationRounds())
	}
	tiny, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.MaxSimulationRounds() < 1 {
		t.Fatal("round bound should clamp to at least 1")
	}
}
