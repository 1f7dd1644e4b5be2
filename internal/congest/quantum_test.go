package congest

import (
	"errors"
	"testing"
	"time"

	"qdc/internal/graph"
)

// mixedTrafficNode sends one classical and one quantum message to its right
// neighbour for a fixed number of rounds, then terminates.
type mixedTrafficNode struct{ rounds int }

func (m *mixedTrafficNode) Round(ctx *Context, round int, inbox []Message) ([]Message, bool) {
	if round > m.rounds || ctx.ID() != 0 {
		return nil, true
	}
	return []Message{
		NewWordMessage(1, 0, 'c', 0, 3),
		NewQubitMessage(1, 0, 'q', 0, 2),
	}, round >= m.rounds
}

func TestQuantumBitAccounting(t *testing.T) {
	nw, err := NewNetwork(graph.Path(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	res, err := nw.Run(func(*Context) Node { return &mixedTrafficNode{rounds: rounds} }, Options{PerRound: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits != 5*rounds {
		t.Errorf("TotalBits = %d, want %d", res.TotalBits, 5*rounds)
	}
	if res.QuantumBits != 2*rounds {
		t.Errorf("QuantumBits = %d, want %d", res.QuantumBits, 2*rounds)
	}
	if len(res.PerRound) != res.Rounds {
		t.Fatalf("PerRound has %d entries for %d rounds", len(res.PerRound), res.Rounds)
	}
	for r := 0; r < rounds; r++ {
		if res.PerRound[r].ClassicalBits != 3 || res.PerRound[r].QuantumBits != 2 {
			t.Errorf("round %d traffic = %+v, want {3 2}", r+1, res.PerRound[r])
		}
	}
	// The round after the last send carries the in-flight delivery only.
	var total RoundTraffic
	for _, tr := range res.PerRound {
		total.ClassicalBits += tr.ClassicalBits
		total.QuantumBits += tr.QuantumBits
	}
	if total.ClassicalBits+total.QuantumBits != res.TotalBits || total.QuantumBits != res.QuantumBits {
		t.Errorf("per-round totals %+v disagree with TotalBits=%d QuantumBits=%d", total, res.TotalBits, res.QuantumBits)
	}
}

func TestPerRoundIsOptIn(t *testing.T) {
	nw, err := NewNetwork(graph.Path(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(func(*Context) Node { return &mixedTrafficNode{rounds: 2} }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRound) != 0 {
		t.Errorf("PerRound recorded %d rounds without opting in", len(res.PerRound))
	}
	if res.QuantumBits != 4 {
		t.Errorf("aggregate QuantumBits = %d without PerRound, want 4", res.QuantumBits)
	}
}

func TestQubitsChargeBandwidth(t *testing.T) {
	nw, err := NewNetwork(graph.Path(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 classical + 2 quantum bits on one edge in one round exceeds B=4:
	// qubits share the same per-edge budget as classical bits.
	_, err = nw.Run(func(*Context) Node { return &mixedTrafficNode{rounds: 1} }, Options{})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
	}
}

// stubbornNode never terminates and never sends, so a run over it only ends
// via MaxRounds or cancellation.
type stubbornNode struct{}

func (stubbornNode) Round(*Context, int, []Message) ([]Message, bool) {
	return nil, false
}

func TestRunCancelled(t *testing.T) {
	nw, err := NewNetwork(graph.Path(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	cancel := func() bool {
		polls++
		return polls > 50
	}
	start := time.Now()
	res, err := nw.Run(func(*Context) Node { return stubbornNode{} }, Options{MaxRounds: 1 << 30, Cancel: cancel})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res.Terminated {
		t.Error("cancelled run reported Terminated")
	}
	if res.Rounds < 45 || res.Rounds > 51 {
		t.Errorf("cancelled after %d rounds, want ~50", res.Rounds)
	}
	// Without the cancellation check the 2^30-round limit would keep this
	// goroutine busy for minutes; the poll must stop it immediately.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s, the round loop did not stop", elapsed)
	}
}

func TestRunNotCancelled(t *testing.T) {
	nw, err := NewNetwork(graph.Path(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(func(*Context) Node { return &mixedTrafficNode{rounds: 1} }, Options{Cancel: func() bool { return false }})
	if err != nil || !res.Terminated {
		t.Fatalf("never-firing cancel broke the run: res=%+v err=%v", res, err)
	}
}
