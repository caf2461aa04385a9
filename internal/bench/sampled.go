package bench

import (
	"gsdram/internal/cpu"
	"gsdram/internal/machine"
	"gsdram/internal/sample"
	"gsdram/internal/sim"
)

// SampledEntry pairs one run's label with its sampled estimate; the
// collected entries form the `sampled` section of the JSON output.
type SampledEntry struct {
	Run    string
	Result *sample.Result
}

// sampleConfigFor derives the per-run sampling config for job index j.
// The placement seed mixes the configured seed with the job index so
// every run draws independent window offsets, while remaining a pure
// function of j — worker count cannot perturb it. Checkpointing is
// stripped: batch runs never share the caller's checkpoint writer.
func sampleConfigFor(base sample.Config, j int) sample.Config {
	base.Seed ^= (uint64(j) + 1) * 0x9E3779B97F4A7C15
	base.CheckpointAfter = 0
	base.CheckpointW = nil
	return base
}

// runSampled executes one stream under interval sampling on a fresh,
// untelemetered rig and synthesizes RunMetrics comparable to rig.run:
// extrapolated cycles and energy from the estimate, memory-side
// counters from the detailed windows (functional fast-forward touches
// no counters).
//
// Streams supporting a functional shadow overlay (imdb.TxnStream) are
// switched into it: the timing path is tag-only and checksums come out
// identical, so the scattered physical-layout writes — and the
// copy-on-write DRAM row copies they would trigger on the cloned
// template — are pure overhead for a sampled run.
func runSampled(sc sample.Config, mach *machine.Machine, r *rig, s cpu.Stream) (RunMetrics, *sample.Result, error) {
	if sh, ok := s.(interface{ EnableShadow() }); ok {
		sh.EnableShadow()
	}
	est, err := sample.Run(sc, sample.Target{Mach: mach, Q: r.q, Mem: r.mem, Stream: s})
	if err != nil {
		return RunMetrics{}, nil, err
	}
	m := RunMetrics{
		Cycles: est.Cycles,
		CoreStats: []cpu.Stats{{
			Instructions: est.Instructions,
			FinishCycle:  sim.Cycle(est.Cycles),
			Finished:     true,
		}},
		Mem:    r.mem.Stats(),
		Ctrl:   r.mem.MemStats(),
		Energy: est.Energy,
	}
	return m, est, nil
}
