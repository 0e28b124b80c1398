package graph_test

import (
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// digest folds a sequence of reads into one comparable value.
type digest uint64

func (d *digest) add(xs ...int) {
	for _, x := range xs {
		*d = *d*1_000_003 + digest(x)
	}
}

func (d *digest) addRow(row []int32) {
	d.add(len(row))
	for _, x := range row {
		d.add(int(x))
	}
}

func readGraph(g *graph.Graph) digest {
	var d digest
	d.add(g.N(), g.M(), g.MaxDeg(), g.MinDeg(), g.CSR().Arcs())
	for v := 0; v < g.N(); v++ {
		d.add(g.Deg(v))
		d.addRow(g.Neighbors(v))
	}
	return d
}

func readBipartite(b *graph.Bipartite) digest {
	var d digest
	d.add(b.NU(), b.NV(), b.M(), b.MinDegU(), b.MaxDegU(), b.Rank())
	d.add(b.CSRU().Arcs(), b.CSRV().Arcs())
	for u := 0; u < b.NU(); u++ {
		d.add(b.DegU(u))
		d.addRow(b.NbrU(u))
	}
	for v := 0; v < b.NV(); v++ {
		d.add(b.DegV(v))
		d.addRow(b.NbrV(v))
	}
	return d
}

func readMultigraph(m *graph.Multigraph) digest {
	var d digest
	d.add(m.N(), m.M(), m.MaxDeg())
	for v := 0; v < m.N(); v++ {
		d.add(m.Deg(v))
		d.addRow(m.Incident(v))
	}
	for e := 0; e < m.M(); e++ {
		u, v := m.Endpoints(e)
		d.add(u, v)
	}
	return d
}

func cycleEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

// TestConcurrentFirstReads builds one fresh value from every constructor
// family and reads it from many goroutines at once, with no read before
// them: every value is immutable once its constructor returns, so under
// -race any write a read makes (a lazy merge or index build) is a detected
// race, and every goroutine must see what a later sequential read sees.
func TestConcurrentFirstReads(t *testing.T) {
	mustB := func(b *graph.Bipartite, err error) *graph.Bipartite {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		fresh func() func() digest // builds the value, returns its reader
	}{
		{"FromEdges", func() func() digest {
			g, err := graph.FromEdges(64, cycleEdges(64))
			if err != nil {
				t.Fatal(err)
			}
			return func() digest { return readGraph(g) }
		}},
		{"BipartiteFromEdges", func() func() digest {
			b := mustB(graph.BipartiteFromEdges(3, 4, [][2]int{{2, 3}, {0, 1}, {1, 1}, {0, 0}, {2, 1}, {0, 1}}))
			return func() digest { return readBipartite(b) }
		}},
		{"MultigraphFromEdges", func() func() digest {
			m, err := graph.MultigraphFromEdges(5, [][2]int{{0, 1}, {1, 0}, {3, 4}, {2, 0}, {4, 3}})
			if err != nil {
				t.Fatal(err)
			}
			return func() digest { return readMultigraph(m) }
		}},
		{"MultigraphFromGraph", func() func() digest {
			m, _ := graph.MultigraphFromGraph(graph.Cycle(64))
			return func() digest { return readMultigraph(m) }
		}},
		{"ImportInstance", func() func() digest {
			b := mustB(graph.ImportInstance(strings.NewReader("3 3\n2 0\n0 2\n1 1\n0 2\n"), "instance"))
			return func() digest { return readBipartite(b) }
		}},
		{"generator", func() func() digest {
			b := mustB(graph.RandomBipartitePowerLaw(40, 120, 2.5, 30, rand.New(rand.NewPCG(5, 0))))
			return func() digest { return readBipartite(b) }
		}},
		{"transform", func() func() digest {
			b := graph.FromGraph(graph.Cycle(64)).SubgraphKeepEdges(func(u, v int) bool { return (u+v)%3 != 0 })
			return func() digest { return readBipartite(b) }
		}},
	}
	const readers = 8
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read := c.fresh()
			start := make(chan struct{})
			got := make([]digest, readers)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i] = read()
				}()
			}
			close(start)
			wg.Wait()
			want := read()
			for i, d := range got {
				if d != want {
					t.Errorf("reader %d saw digest %x, a later sequential read %x", i, d, want)
				}
			}
		})
	}
}
