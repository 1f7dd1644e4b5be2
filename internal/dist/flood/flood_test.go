package flood

import (
	"errors"
	"reflect"
	"testing"

	"qdc/internal/dist/engine"
	"qdc/internal/graph"
)

func TestFloodMatchesSequentialBFS(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		source int
	}{
		{"path16", graph.Path(16), 0},
		{"path16-mid", graph.Path(16), 7},
		{"grid6x4", graph.Grid(6, 4), 0},
		{"single", graph.Path(1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.g.BFS(tc.source).Dist
			local, err := engine.NewLocal(tc.g, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(local, tc.source)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Dist, want) {
				t.Fatalf("distances = %v, want %v", res.Dist, want)
			}
			if ecc := tc.g.Eccentricity(tc.source); res.Rounds != ecc+2 {
				t.Errorf("rounds = %d, want ecc+2 = %d", res.Rounds, ecc+2)
			}

			par, err := engine.NewParallel(tc.g, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := Run(par, tc.source)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pres, res) {
				t.Errorf("parallel result diverged:\nlocal %+v\npar   %+v", res, pres)
			}
		})
	}
}

func TestFloodBadSource(t *testing.T) {
	r, err := engine.NewLocal(graph.Path(4), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{-1, 4} {
		if _, err := Run(r, src); !errors.Is(err, ErrBadSource) {
			t.Errorf("source %d: err = %v, want ErrBadSource", src, err)
		}
	}
}

// TestFloodDisconnectedNamesUnreachedNode: vertices 2 and 3 are out of the
// wave's reach and sleep through the run, which ends once the source's
// component is quiet; Run then names the lowest node without a distance.
func TestFloodDisconnectedNamesUnreachedNode(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	r, err := engine.NewLocal(g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(r, 0)
	if err == nil || err.Error() != "flood: node 2 produced no distance" {
		t.Fatalf("err = %v, want flood: node 2 produced no distance", err)
	}
	if rounds := r.Stats().Rounds; rounds != 3 {
		t.Errorf("run took %d rounds, want ecc(0)+2 = 3 in the source's component", rounds)
	}
}
