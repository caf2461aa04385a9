package bench

import (
	"fmt"
	"sort"
	"sync"

	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/flight"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
	"gsdram/internal/telemetry"
	"gsdram/internal/trace"
)

// Capacity caps for the per-run capture buffers: enough for the quick
// experiment scales to be captured whole, bounded so paper-scale runs
// cannot exhaust memory. Seen() counters record any truncation.
const (
	maxTraceCommands = 200_000
	maxTracePhases   = 100_000
	maxLatencyTraces = 50_000
)

// Capture is one experiment batch's telemetry collection context: set it
// on Options.Capture and every labelled rig the batch builds records a
// per-run metrics registry, epoch time-series, DRAM command and stall
// traces into it. Captures are independent — concurrent batches (e.g.
// telemetered sweep points in one farm process) each drain exactly the
// runs they produced, with no cross-talk and no global serialization.
// A nil *Capture disables capture: rigs are built with a nil registry
// and no observer, so the simulation pays nothing beyond the counter
// increments it always performed.
type Capture struct {
	epoch sim.Cycle
	// flightDepth > 0 additionally arms a flight recorder on every rig
	// (last-K events per component; see internal/flight).
	flightDepth int

	mu      sync.Mutex
	runs    []*telemetry.Run
	flights []flight.LabeledRecorder
}

// NewCapture returns an empty capture context. epochCycles is the
// sampling interval of the epoch time-series (0 selects
// telemetry.DefaultEpoch).
func NewCapture(epochCycles uint64) *Capture {
	return &Capture{epoch: sim.Cycle(epochCycles)}
}

// SetFlightDepth arms flight recording on every rig this capture
// subsequently builds, keeping the last depth events per component
// (flight.DefaultDepth if depth < 0 is not allowed; 0 disarms). Call
// before the batch runs.
func (c *Capture) SetFlightDepth(depth int) { c.flightDepth = depth }

// FlightRecorders returns the flight recorders of every rig the capture
// armed so far, label-sorted, including rigs that have not finished —
// so a dump after a panic still shows the events leading up to it.
// Recorders belong to their rig's event loop; only read them once the
// batch has stopped running.
func (c *Capture) FlightRecorders() []flight.LabeledRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]flight.LabeledRecorder(nil), c.flights...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Drain returns the runs captured since the last call (or since
// NewCapture), sorted by label so the result is deterministic regardless
// of worker scheduling, and clears the collection.
func (c *Capture) Drain() []*telemetry.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	runs := c.runs
	c.runs = nil
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// add records one finished run.
func (c *Capture) add(run *telemetry.Run) {
	c.mu.Lock()
	c.runs = append(c.runs, run)
	c.mu.Unlock()
}

// rigTelemetry is one rig's capture state.
type rigTelemetry struct {
	owner   *Capture
	label   string
	reg     *metrics.Registry
	rec     *trace.Recorder
	phases  *telemetry.PhaseRecorder
	sampler *telemetry.Sampler
	flight  *flight.Recorder
}

// arm creates the capture state for a rig labelled label. It returns
// nil — build an untelemetered rig — when the batch has no capture
// context or the run has no label; every method of a nil *rigTelemetry
// is a no-op, so the run loop calls them unconditionally.
func (c *Capture) arm(label string) *rigTelemetry {
	if c == nil || label == "" {
		return nil
	}
	rt := &rigTelemetry{
		owner:  c,
		label:  label,
		reg:    metrics.New(),
		rec:    trace.NewRecorder(maxTraceCommands),
		phases: telemetry.NewPhaseRecorder(maxTracePhases),
	}
	if c.flightDepth > 0 {
		rt.flight = flight.New(c.flightDepth)
		c.mu.Lock()
		c.flights = append(c.flights, flight.LabeledRecorder{Label: label, Rec: rt.flight})
		c.mu.Unlock()
	}
	return rt
}

// start completes registration — per-core counters and stall hooks,
// the live energy gauges — and starts the epoch sampler. Call after the
// cores are built, before the rig's queue runs.
func (rt *rigTelemetry) start(r *rig, cores []*cpu.Core) {
	if rt == nil {
		return
	}
	for i, c := range cores {
		c.RegisterMetrics(rt.reg, fmt.Sprintf("core.%d", i))
		c.SetPhaseHook(rt.phases.HookFor(i))
		c.SetFlightRecorder(rt.flight)
	}
	energy.RegisterLive(rt.reg, func() energy.Activity {
		return r.activity(r.q.Now(), cores)
	}, energy.DefaultDRAM(), energy.DefaultCPU())
	rt.sampler = telemetry.NewSampler(r.q, rt.reg, rt.owner.epoch)
	rt.sampler.Start()
}

// finish records the final epoch row, assembles the telemetry.Run, and
// adds it to the owning capture. Call after the rig's queue drains.
func (rt *rigTelemetry) finish(r *rig, cores []*cpu.Core) {
	if rt == nil {
		return
	}
	rt.sampler.Finish(r.q.Now())
	run := &telemetry.Run{
		Label:        rt.label,
		Registry:     rt.reg,
		Series:       rt.sampler.Series(),
		Phases:       rt.phases,
		Commands:     rt.rec.Events(),
		CommandsSeen: rt.rec.Seen(),
		Latency:      r.mem.LatencyRecorder(),
		Flight:       rt.flight,
		End:          r.q.Now(),
	}
	for i, c := range cores {
		st := c.Stats()
		run.Cores = append(run.Cores, telemetry.CoreSpan{Core: i, Start: st.StartCycle, Finish: st.FinishCycle})
	}
	rt.owner.add(run)
}
