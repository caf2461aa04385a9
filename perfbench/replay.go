package main

import (
	"fmt"

	"gsdram/internal/cpu"
	"gsdram/internal/graph"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// replayGraph rebuilds the graph experiment's six runs (PageRank, then
// the random update batch, on the AoS, SoA and GS layouts) from the
// public constructors, with a metrics registry attached, and returns
// their work per pass. Each replayed run's cycles are checked against
// the reference like any other run.
func replayGraph(seed uint64, t *tally) (unitCounts, error) {
	ref, ok := t.chk.refs["graph"]
	if !ok || len(ref.Cycles) != 6 {
		return unitCounts{}, fmt.Errorf("no graph reference to replay against")
	}
	var total unitCounts
	for kernel := 0; kernel < 2; kernel++ {
		for li, layout := range []graph.Layout{graph.AoS, graph.SoA, graph.GS} {
			mach, err := machine.Default()
			if err != nil {
				return unitCounts{}, err
			}
			g, err := graph.NewRandom(mach, layout, graphVertices, graphDegree, seed)
			if err != nil {
				return unitCounts{}, err
			}
			var s cpu.Stream
			var pr graph.PageRankResult
			if kernel == 0 {
				s, err = g.PageRankStream(2, &pr)
			} else {
				s, err = g.UpdateStream(defaultTxns, 3, seed+1)
			}
			if err != nil {
				return unitCounts{}, err
			}
			q := &sim.EventQueue{}
			reg := metrics.New()
			cfg := memsys.DefaultConfig(1)
			cfg.Metrics = reg
			mem, err := memsys.New(cfg, q)
			if err != nil {
				return unitCounts{}, err
			}
			c := cpu.New(0, q, mem, s, nil)
			c.RegisterMetrics(reg, "core.0")
			c.Start(0)
			q.Run()
			t.attempted++
			if got, want := uint64(c.Stats().FinishCycle), ref.Cycles[kernel*3+li]; got != want {
				t.failed++
				t.problems = append(t.problems, fmt.Sprintf("graph replay %v kernel %d: %d cycles, reference %d", layout, kernel, got, want))
			}
			total = total.plus(countsFromMetrics(reg.Export()))
		}
	}
	return total, nil
}
