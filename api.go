// Package gsdram is a from-scratch reproduction of "Gather-Scatter DRAM:
// In-DRAM Address Translation to Improve the Spatial Locality of Non-unit
// Strided Accesses" (Seshadri et al., MICRO 2015).
//
// The package is a facade over the implementation in internal/...:
//
//   - The GS-DRAM mechanism itself (column-ID data shuffling, per-chip
//     column translation logic, gather/scatter, the §6 extensions) —
//     re-exported from internal/gsdram.
//   - A functional machine (pattmalloc address space + GS-DRAM modules
//     holding real data) — re-exported from internal/machine.
//   - A timed system: event-driven in-order cores, pattern-tagged caches,
//     a stride prefetcher, and an FR-FCFS DDR3-1600 memory controller —
//     assembled from internal/cpu, internal/memsys and friends.
//   - The experiment runners that regenerate every table and figure of
//     the paper's evaluation — re-exported from internal/bench.
//
// See README.md for a tour and examples/ for runnable programs.
package gsdram

import (
	"gsdram/internal/addrmap"
	"gsdram/internal/bench"
	core "gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/sample"
	"gsdram/internal/telemetry"
)

// ---- The GS-DRAM substrate (paper §3) ----

// Params describes a GS-DRAM(c,s,p) configuration: c chips, s shuffling
// stages, p pattern-ID bits.
type Params = core.Params

// Pattern is a pattern ID carried with each column command.
type Pattern = core.Pattern

// Module is a functional model of a GS-DRAM rank: it stores data exactly
// as the shuffled chips would and serves gathers/scatters for any
// (column, pattern) combination.
type Module = core.Module

// Geometry is a module's banks x rows x columns organisation.
type Geometry = core.Geometry

// ShuffleFunc programs the controller's shuffling stages (paper §6.1).
type ShuffleFunc = core.ShuffleFunc

// Mapping selects a cache-line-to-chip mapping for conflict analysis.
type Mapping = core.Mapping

// ECCModule is a GS-DRAM module with a SEC-DED ECC chip that supports
// intra-chip column translation (paper §6.3).
type ECCModule = core.ECCModule

// TiledChip models per-MAT intra-chip column translation (paper §6.3).
type TiledChip = core.TiledChip

// DefaultPattern is the pattern ID of an ordinary cache-line access.
const DefaultPattern = core.DefaultPattern

// Configurations and mappings used throughout the paper.
var (
	// GS844 is GS-DRAM(8,3,3), the paper's evaluated configuration.
	GS844 = core.GS844
	// GS422 is GS-DRAM(4,2,2), the paper's worked example.
	GS422 = core.GS422
)

// Mapping schemes for chip-conflict analysis (paper §3.1/§3.2).
const (
	SimpleMapping   = core.SimpleMapping
	ShuffledMapping = core.ShuffledMapping
)

// NewModule returns a zero-filled module with the default shuffling
// function. It panics on invalid parameters.
func NewModule(p Params, g Geometry) *Module { return core.NewModule(p, g) }

// NewModuleFunc returns a module with a programmable shuffling function
// (paper §6.1); nil selects the default column-LSB function.
func NewModuleFunc(p Params, g Geometry, fn ShuffleFunc) (*Module, error) {
	return core.NewModuleFunc(p, g, fn)
}

// NewECCModule returns an ECC-protected module (paper §6.3).
func NewECCModule(p Params, g Geometry) (*ECCModule, error) { return core.NewECCModule(p, g) }

// DefaultShuffle, MaskedShuffle and XORShuffle build shuffling functions
// (paper §3.2 and §6.1).
func DefaultShuffle(stages int) ShuffleFunc      { return core.DefaultShuffle(stages) }
func MaskedShuffle(stages, mask int) ShuffleFunc { return core.MaskedShuffle(stages, mask) }
func XORShuffle(groups []int) ShuffleFunc        { return core.XORShuffle(groups) }

// StrideSet returns the logical word indices of a strided gather, for use
// with conflict analysis.
func StrideSet(start, stride, count int) []int { return core.StrideSet(start, stride, count) }

// ---- The functional machine (paper §4.3's software view) ----

// Addr is a simulated physical byte address.
type Addr = addrmap.Addr

// Machine bundles a pattmalloc address space with GS-DRAM modules holding
// real data: allocate with Machine.AS.PattMalloc, move data with
// ReadWord/WriteWord/ReadLine/WriteLine, and compute pattload addresses
// with GatherAddr.
type Machine = machine.Machine

// NewMachine returns a machine with the paper's Table 1 organisation:
// one DDR3-1600 channel, one rank of 8 banks, GS-DRAM(8,3,3).
func NewMachine() (*Machine, error) { return machine.Default() }

// ---- Experiments (paper §5) ----

// Options scales the experiment suite and carries every per-run switch:
// Options.NoInline disables the cores' event-horizon fast path, forcing
// the pure event-driven execution (results are bit-identical either way;
// it exists as an escape hatch and for equivalence testing, gsbench
// -noinline), and Options.L2Latency overrides the L2 hit latency (an
// ablation knob, gsbench -l2-latency). Both apply to the one batch
// they are passed to, so batches with different settings can run
// concurrently.
type Options = bench.Options

// DefaultOptions returns the default experiment scale; QuickOptions a
// reduced scale for smoke tests.
func DefaultOptions() Options { return bench.DefaultOptions() }
func QuickOptions() Options   { return bench.QuickOptions() }

// TelemetryCapture collects telemetry — per-run metrics registries, the
// epoch time-series, DRAM command and core stall-phase traces — for one
// batch of experiment runs. Set one on Options.Capture, run the batch,
// then call Drain for the captured runs. Captures are per-batch, not
// session-global: concurrent batches with independent captures record
// independently, with no cross-talk and no serialization. Telemetry
// observes without mutating, so results are bit-identical either way;
// it is off by default (nil Options.Capture) because the capture
// buffers cost memory.
type TelemetryCapture = bench.Capture

// NewTelemetryCapture returns an empty capture context. epochCycles is
// the time-series sampling interval (0 = the default 100k cycles).
func NewTelemetryCapture(epochCycles uint64) *TelemetryCapture { return bench.NewCapture(epochCycles) }

// TelemetryRun is one run's captured telemetry (see internal/telemetry).
type TelemetryRun = telemetry.Run

// Fig9Result and Fig10Result are the structured results of the headline
// analytics experiments, exported so tools (gsbench -json) can summarise
// them without reaching into internal packages. PattBitsResult is the
// §3.5 pattern-bit sweep.
type (
	Fig9Result     = bench.Fig9Result
	Fig10Result    = bench.Fig10Result
	PattBitsResult = bench.PatternSweepResult
)

// ---- Sampled simulation (DESIGN.md §5.7) ----

// SampleConfig parameterises SMARTS-style interval sampling: set it on
// Options.Sample and the sampling-capable runners (Figure 9, Figure 10,
// the pattern sweep) fast-forward most instructions functionally and
// measure short detailed windows, returning extrapolated estimates with
// confidence intervals (gsbench -sample).
type SampleConfig = sample.Config

// SampledResult is one run's sampled estimate: CPI, extrapolated cycles
// and energy, and the Student-t confidence interval half-widths.
type SampledResult = sample.Result

// SampledEntry labels one run's sampled estimate inside an experiment
// result (the `sampled` section of gsbench -json output).
type SampledEntry = bench.SampledEntry

// The experiment runners regenerate the paper's tables and figures. Each
// returns structured results with a Table() (or similar) renderer.
var (
	RunFig9     = bench.RunFig9
	RunAuto     = bench.RunAutoGather
	RunSchedule = bench.RunSchedulerAblation
	RunFig10    = bench.RunFig10
	RunFig11    = bench.RunFig11
	RunFig12    = bench.RunFig12
	RunFig13    = bench.RunFig13
	RunKVStore  = bench.RunKVStore
	RunGraph    = bench.RunGraph
	RunChannels = bench.RunChannels
	RunImpulse  = bench.RunImpulse
	RunPattBits = bench.RunPatternSweep
	RunStoreBuf = bench.RunStoreBuffer
	RunPixels   = bench.RunPixels
	Table1      = bench.Table1
	Fig7        = bench.Fig7
	AblationMap = bench.AblationShuffle
	AblationECC = bench.AblationECC
)
