package engine

import (
	"fmt"
	"runtime"

	"qdc/internal/congest"
)

// Parallel is the concurrent CONGEST(B) backend: the same plain accounting
// as Local, but each stage splits the node IDs into one contiguous range per
// worker goroutine, and every worker steps, validates and delivers for its
// own range (congest.Options.Workers). Because CONGEST nodes interact only
// through messages delivered at round boundaries and every node owns a
// private random stream, a Parallel run is bit-for-bit identical to a Local
// run with the same topology, bandwidth and seed — same Stats, same outputs,
// same verdicts (TestNewParallelMatchesLocal pins this, and the whole
// suite runs under -race in CI). A round costs each worker its share of the
// nodes and of the traffic, so the wall-clock win grows with n and with the
// per-round node work; the experiment harness in internal/exp exposes it as
// a backend of its scenario matrix.
type Parallel struct {
	net     *congest.Network
	workers int
	cancel  func() bool
	obs     StageObserver
	stats   Stats
}

// NewParallel returns a Runner executing stages on a fresh CONGEST network
// with rounds stepped concurrently across GOMAXPROCS worker goroutines.
// A bandwidth <= 0 selects congest.DefaultBandwidth.
func NewParallel(topo congest.Topology, bandwidth int, seed int64) (*Parallel, error) {
	if topo == nil {
		return nil, ErrNilTopology
	}
	net, err := congest.NewNetwork(topo, bandwidth)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	net.SetSeed(seed)
	return &Parallel{net: net, workers: runtime.GOMAXPROCS(0)}, nil
}

// SetWorkers overrides the number of stepping goroutines. Values <= 1 make
// the runner behave exactly like Local; the experiment harness uses this to
// avoid oversubscription when many runners execute side by side.
func (p *Parallel) SetWorkers(workers int) { p.workers = workers }

// SetCancel installs a cancellation poll checked at every round boundary of
// subsequent stages; see congest.Options.Cancel.
func (p *Parallel) SetCancel(cancel func() bool) { p.cancel = cancel }

// SetObserver installs a per-stage observer for subsequent stages; nil
// removes it. See StageObserver.
func (p *Parallel) SetObserver(obs StageObserver) { p.obs = obs }

// RunStage implements Runner.
func (p *Parallel) RunStage(factory congest.NodeFactory, inputs map[int]any, maxRounds int) (*congest.Result, error) {
	return runNetworkStage(p.net, &p.stats, p.obs, factory, inputs, congest.Options{MaxRounds: maxRounds, Workers: p.workers, Cancel: p.cancel})
}

// Bandwidth implements Runner.
func (p *Parallel) Bandwidth() int { return p.net.Bandwidth() }

// Size implements Runner.
func (p *Parallel) Size() int { return p.net.Size() }

// Stats implements Runner.
func (p *Parallel) Stats() Stats { return p.stats }

// Compile-time interface check.
var _ Runner = (*Parallel)(nil)
