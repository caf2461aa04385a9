package bench_test

import (
	"testing"

	"gsdram/internal/cpu"
	"gsdram/internal/gemm"
	"gsdram/internal/graph"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/pixels"
	"gsdram/internal/query"
)

// Steady-state allocation pin for the workload generators. Each case
// builds a fixture and returns a stream factory over it. One full pass
// first materialises every copy-on-write data page the stream writes
// (an allocation of the gsdram array, not of the generator); a second
// stream's warm-up drain then grows its op buffer to its largest batch.
// After that, pulling ops allocates nothing, except one address vector
// per emitted GatherV.
const (
	genWarmOps     = 40000
	genMeasuredOps = 10000
)

type streamFactory func() (cpu.Stream, error)

func TestGeneratorSteadyStateAllocs(t *testing.T) {
	newMach := func(t *testing.T) *machine.Machine {
		t.Helper()
		m, err := machine.Default()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	newGraph := func(t *testing.T) *graph.Graph {
		t.Helper()
		g, err := graph.NewRandom(newMach(t), graph.GS, 1024, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	newDB := func(t *testing.T) *imdb.DB {
		t.Helper()
		db, err := imdb.New(newMach(t), imdb.GSStore, 16384)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	newImage := func(t *testing.T) *pixels.Image {
		t.Helper()
		img, err := pixels.New(newMach(t), 32768, true)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	columns := []int{0, 1, 2}
	analytics := func(pbits int) func(t *testing.T) streamFactory {
		return func(t *testing.T) streamFactory {
			db := newDB(t)
			return func() (cpu.Stream, error) { return db.AnalyticsStreamPatternBits(columns, pbits, nil) }
		}
	}
	hashJoin := func(gatherv bool) func(t *testing.T) streamFactory {
		return func(t *testing.T) streamFactory {
			db := newDB(t)
			return func() (cpu.Stream, error) { return db.HashJoinStream(1<<19, 16, 1, gatherv, nil) }
		}
	}
	spmv := func(gatherv bool) func(t *testing.T) streamFactory {
		return func(t *testing.T) streamFactory {
			s, err := gemm.NewSpMV(newMach(t), 16384, 4096, 16, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			return func() (cpu.Stream, error) { return s.Stream(gatherv, nil) }
		}
	}
	ptrChase := func(gatherv bool, steps int) func(t *testing.T) streamFactory {
		return func(t *testing.T) streamFactory {
			g := newGraph(t)
			if err := g.InitPtrChase(1); err != nil {
				t.Fatal(err)
			}
			return func() (cpu.Stream, error) { return g.PtrChaseStream(32, steps, 1, gatherv, nil) }
		}
	}

	cases := []struct {
		name string
		mk   func(t *testing.T) streamFactory
	}{
		{"pagerank", func(t *testing.T) streamFactory {
			g := newGraph(t)
			return func() (cpu.Stream, error) { return g.PageRankStream(3, nil) }
		}},
		{"update", func(t *testing.T) streamFactory {
			g := newGraph(t)
			return func() (cpu.Stream, error) { return g.UpdateStream(10000, 4, 1) }
		}},
		{"analytics-stride0", func(t *testing.T) streamFactory {
			db := newDB(t)
			return func() (cpu.Stream, error) { return db.PlainAnalyticsStream(columns, nil) }
		}},
		{"analytics-stride2", analytics(1)},
		{"analytics-stride4", analytics(2)},
		{"analytics-stride8", analytics(3)},
		{"histogram", func(t *testing.T) streamFactory {
			img := newImage(t)
			return func() (cpu.Stream, error) { return img.HistogramStream(pixels.ChanG, nil) }
		}},
		{"shade", func(t *testing.T) streamFactory {
			img := newImage(t)
			list := make([]int, 8000)
			for i := range list {
				list[i] = (i * 7919) % img.N()
			}
			return func() (cpu.Stream, error) { return img.ShadeStream(list) }
		}},
		{"query", func(t *testing.T) streamFactory {
			p, err := query.NewEngine(newDB(t)).Plan(query.Query{
				Aggregates: []query.Agg{{Kind: query.Sum, Field: 1}, {Kind: query.Max, Field: 2}, {Kind: query.Count}},
				Filter:     &query.Filter{Field: 0, Op: query.Ge, Value: 40000},
			})
			if err != nil {
				t.Fatal(err)
			}
			return func() (cpu.Stream, error) { return p.Stream(nil), nil }
		}},
		{"hashjoin-scalar", hashJoin(false)},
		{"hashjoin-gatherv", hashJoin(true)},
		{"spmv-scalar", spmv(false)},
		{"spmv-gatherv", spmv(true)},
		{"ptrchase-scalar", ptrChase(false, 2000)},
		{"ptrchase-gatherv", ptrChase(true, 40000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := tc.mk(t)
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, ok := s.Next(); ok; _, ok = s.Next() {
			}
			if s, err = mk(); err != nil {
				t.Fatal(err)
			}
			pull := func(n int) (gathers int) {
				for i := 0; i < n; i++ {
					op, ok := s.Next()
					if !ok {
						t.Fatal("stream ended within the pinned window")
					}
					if op.Kind == cpu.OpGatherV {
						gathers++
					}
				}
				return gathers
			}
			pull(genWarmOps)
			var gathers int
			allocs := testing.AllocsPerRun(1, func() { gathers = pull(genMeasuredOps) })
			// A vector is allocated when its batch is generated, so the
			// window's last batch may hold one GatherV not yet pulled.
			limit := gathers
			if gathers > 0 {
				limit++
			}
			if allocs > float64(limit) {
				t.Fatalf("%v allocations per %d ops, want at most %d (%d GatherVs pulled)",
					allocs, genMeasuredOps, limit, gathers)
			}
		})
	}
}
