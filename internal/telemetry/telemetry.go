// Package telemetry turns the metrics registry and the simulator's
// observer hooks into run-level artefacts: an epoch time-series sampled
// on the event queue, core stall phases, captured DRAM command streams,
// and a Chrome trace_event / Perfetto JSON exporter over all of them.
//
// Everything here is off the hot path. The sampler fires one event per
// epoch; the phase recorder is invoked only when a core resumes from a
// DRAM-bound stall; the exporters run after the simulation has finished.
// None of it mutates simulated state, so enabling telemetry cannot
// perturb results — the determinism tests in bench pin this.
package telemetry

import (
	"gsdram/internal/flight"
	"gsdram/internal/latency"
	"gsdram/internal/memctrl"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// Phase is one core stall interval [From, To): the core issued a memory
// operation at From that missed all the way to DRAM and resumed at To.
type Phase struct {
	Core int       `json:"core"`
	From sim.Cycle `json:"from"`
	To   sim.Cycle `json:"to"`
}

// PhaseRecorder collects core stall phases up to a capacity
// (capacity <= 0 keeps everything), mirroring trace.Recorder's
// capacity-drop semantics: Seen counts every phase, Phases holds the
// first cap of them.
type PhaseRecorder struct {
	cap    int
	phases []Phase
	seen   uint64
}

// NewPhaseRecorder returns a recorder keeping at most capacity phases.
func NewPhaseRecorder(capacity int) *PhaseRecorder {
	return &PhaseRecorder{cap: capacity}
}

// HookFor returns a cpu.Core phase hook that tags phases with the core id.
func (p *PhaseRecorder) HookFor(core int) func(from, to sim.Cycle) {
	return func(from, to sim.Cycle) {
		p.seen++
		if p.cap > 0 && len(p.phases) >= p.cap {
			return
		}
		p.phases = append(p.phases, Phase{Core: core, From: from, To: to})
	}
}

// Phases returns the recorded phases in recording order.
func (p *PhaseRecorder) Phases() []Phase { return p.phases }

// Seen returns the total number of phases observed, including any
// dropped after the capacity was reached.
func (p *PhaseRecorder) Seen() uint64 { return p.seen }

// CoreSpan is one core's busy interval over the whole run.
type CoreSpan struct {
	Core   int       `json:"core"`
	Start  sim.Cycle `json:"start"`
	Finish sim.Cycle `json:"finish"`
}

// Run bundles everything telemetry captured for one simulated run. The
// bench layer fills it in; the exporters consume it.
type Run struct {
	// Label identifies the run (e.g. "fig9/gsdram/pure-q"); it is also
	// the Perfetto process name. Labels must be unique within a batch.
	Label string

	// Registry is the run's metrics registry (final values).
	Registry *metrics.Registry

	// Series is the epoch time-series the Sampler produced.
	Series *Series

	// Cores lists per-core busy spans; Phases the DRAM-stall intervals.
	Cores  []CoreSpan
	Phases *PhaseRecorder

	// Commands is the captured DRAM command stream (possibly truncated:
	// CommandsSeen counts every command issued).
	Commands     []memctrl.CommandEvent
	CommandsSeen uint64

	// Latency is the run's request-lifecycle attribution recorder (span
	// histograms, core-stall stage counters, bounded request traces). Nil
	// when the run was captured without one.
	Latency *latency.Recorder

	// Flight is the run's flight recorder (last-K microarchitectural
	// events per component). Nil unless the capture armed one.
	Flight *flight.Recorder

	// End is the rig's clock when its event queue drained. With the epoch
	// sampler armed that is the sampler's last tick, the first epoch
	// boundary at or after the cores finished, so End is the finish
	// cycle rounded up to the epoch: at an epoch longer than the run it
	// is exactly one epoch whatever the run did. The cores' own finish
	// cycles are in Cores.
	End sim.Cycle
}

// Manifest describes how a batch of runs was produced, for the
// machine-readable JSON output. Params carries the experiment knobs as
// strings so the encoding stays deterministic and diffable.
type Manifest struct {
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	Seed      uint64            `json:"seed"`
	Workers   int               `json:"workers"`
	Epoch     uint64            `json:"epoch_cycles,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
}
