package bench

import (
	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/memsys"
	"gsdram/internal/sim"
)

// rig is one simulated system: an event queue, the memory system built
// on it, and — for a labelled run in a capturing batch — its telemetry
// state. Every rig of every experiment is built by Options.newRig and
// executed by rig.run or rig.runHTAP (or, sampled, by runSampled), so
// this package constructs cores and memory systems only here and the
// options reach every run.
type rig struct {
	q        *sim.EventQueue
	mem      *memsys.System
	noInline bool
	tel      *rigTelemetry // nil for untelemetered rigs
}

// memConfig is memsys.DefaultConfig for the given core count plus the
// options' L2 hit-latency override. Callers adjust the returned config
// (prefetch, controller policy, gather placement, channels) before
// handing it to newRig.
func (o Options) memConfig(cores int) memsys.Config {
	cfg := memsys.DefaultConfig(cores)
	if o.L2Latency > 0 {
		cfg.L2Latency = sim.Cycle(o.L2Latency)
	}
	return cfg
}

// newRig builds the memory system for cfg on a fresh event queue. label
// names the run for telemetry capture (e.g. "fig9/GS-DRAM/50-25-25");
// an empty label, or a batch without Options.Capture, builds an
// untelemetered rig. Labels must be unique within a batch.
func (o Options) newRig(label string, cfg memsys.Config) (*rig, error) {
	r := &rig{q: &sim.EventQueue{}, noInline: o.NoInline, tel: o.Capture.arm(label)}
	if t := r.tel; t != nil {
		cfg.Metrics, cfg.Mem.Observer, cfg.Flight = t.reg, t.rec.Observe, t.flight
		cfg.LatencyTraceCap = maxLatencyTraces
	}
	mem, err := memsys.New(cfg, r.q)
	if err != nil {
		return nil, err
	}
	r.mem = mem
	return r, nil
}

// core builds core id running s with a store buffer of sbCap entries
// (0 = blocking stores) and starts it at cycle 0.
func (r *rig) core(id int, s cpu.Stream, onDone func(sim.Cycle), sbCap int) *cpu.Core {
	c := cpu.NewWithStoreBuffer(id, r.q, r.mem, s, onDone, sbCap)
	c.SetNoInline(r.noInline)
	c.Start(0)
	return c
}

// execute drains the event queue with the cores built, bracketed by
// the telemetry hooks. cores[i] must have core ID i.
func (r *rig) execute(cores []*cpu.Core) {
	r.tel.start(r, cores)
	r.q.Run()
	r.tel.finish(r, cores)
}

// run executes one stream per core to completion, each core with a
// store buffer of sbCap entries, and returns the metrics.
func (r *rig) run(sbCap int, streams ...cpu.Stream) RunMetrics {
	cores := make([]*cpu.Core, len(streams))
	for i, s := range streams {
		cores[i] = r.core(i, s, nil, sbCap)
	}
	r.execute(cores)
	for _, c := range cores {
		if !c.Stats().Finished {
			panic("bench: core did not finish")
		}
	}
	return r.measure(cores)
}

// runHTAP runs the two-core HTAP mix: analytics on core 0 and
// transactions on core 1, sharing the L2 and memory controller. The
// transaction thread runs until the analytics query completes; the
// cycle it completed at is returned.
func (r *rig) runHTAP(analytics, txns cpu.Stream) sim.Cycle {
	var done sim.Cycle
	var txnCore *cpu.Core
	anaCore := r.core(0, analytics, func(now sim.Cycle) {
		done = now
		txnCore.Stop()
	}, 0)
	txnCore = r.core(1, txns, nil, 0)
	r.execute([]*cpu.Core{anaCore, txnCore})
	return done
}

// measure assembles the metrics after a run completes.
func (r *rig) measure(cores []*cpu.Core) RunMetrics {
	var m RunMetrics
	for _, c := range cores {
		st := c.Stats()
		m.CoreStats = append(m.CoreStats, st)
		if rt := uint64(st.FinishCycle); rt > m.Cycles {
			m.Cycles = rt
		}
	}
	m.Mem = r.mem.Stats()
	m.Ctrl = r.mem.MemStats()
	m.Energy = energy.Estimate(r.activity(sim.Cycle(m.Cycles), cores), energy.DefaultDRAM(), energy.DefaultCPU())
	return m
}

// activity is the energy model's view of the rig at runtime cycles.
func (r *rig) activity(runtime sim.Cycle, cores []*cpu.Core) energy.Activity {
	var instrs uint64
	for _, c := range cores {
		instrs += c.Stats().Instructions
	}
	l1, l2 := r.mem.CacheStats()
	return energy.Activity{
		Runtime:      runtime,
		FreqGHz:      4,
		Cores:        len(cores),
		Instructions: instrs,
		L1:           l1,
		L2:           l2,
		Mem:          r.mem.MemStats(),
	}
}
