package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"gsdram/internal/bench"
	"gsdram/internal/flight"
	"gsdram/internal/stats"
	"gsdram/internal/telemetry"
)

// Outcome is one executed spec: the structured experiment result plus
// everything a run document needs.
type Outcome struct {
	Spec    *Spec
	WallNS  int64
	Result  any
	Summary any
	Tables  []*stats.Table
	Sampled []bench.SampledEntry
	// Telemetry is the condensed per-run document section; Runs keeps
	// the raw captures for exporters (traces, Prometheus, the latency
	// report). Both are nil for untelemetered specs.
	Telemetry []TelemetryEntry
	Runs      []*telemetry.Run
	// Flight holds the labelled flight recorders when the run was armed
	// with RunFlight (nil otherwise); dump with flight.WriteNDJSON.
	Flight []flight.LabeledRecorder
}

// Run validates and executes one spec, constructing the rig exactly as
// the CLI would for the equivalent flags. It is safe for concurrent use:
// every setting, NoInline and L2Latency included, travels in the
// spec's bench.Options, and the telemetry capture is per call.
func Run(s *Spec) (*Outcome, error) { return RunFlight(s, 0) }

// RunFlight is Run with a flight recorder armed on every rig at the
// given per-component ring depth (0 runs without flight). Flight rides
// the telemetry capture context, so a depth > 0 forces telemetry on;
// recording is pinned bit-identical, so the results are unchanged.
func RunFlight(s *Spec, flightDepth int) (*Outcome, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if flightDepth > 0 && !s.Telemetry {
		s.Telemetry = true
		s.Epoch = uint64(telemetry.DefaultEpoch)
	}
	run, _ := lookup(s.Experiment) // Validate checked membership
	opts := s.BenchOptions()
	var capture *bench.Capture
	if s.Telemetry {
		capture = bench.NewCapture(s.Epoch)
		if flightDepth > 0 {
			capture.SetFlightDepth(flightDepth)
		}
		opts.Capture = capture
	}

	start := time.Now()
	result, summary, tables, err := run(s, opts)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Spec:    s,
		WallNS:  wall.Nanoseconds(),
		Result:  result,
		Summary: summary,
		Tables:  tables,
		Sampled: sampledEntries(result),
	}
	if s.Telemetry {
		out.Runs = capture.Drain()
		for _, r := range out.Runs {
			out.Telemetry = append(out.Telemetry, NewTelemetryEntry(r))
		}
		if flightDepth > 0 {
			out.Flight = capture.FlightRecorders()
		}
	}
	return out, nil
}

// DumpFlight re-executes a spec with a flight recorder armed and writes
// the NDJSON dump to w. A panic during the re-run is recovered and
// returned as the error — the dump still covers every event recorded up
// to the failure, which is the whole point: the farm calls this for
// failed and retried points. depth <= 0 selects flight.DefaultDepth.
func DumpFlight(s *Spec, depth int, w io.Writer) (err error) {
	if depth <= 0 {
		depth = flight.DefaultDepth
	}
	norm := s.Normalized()
	norm.Telemetry = true
	if norm.Epoch == 0 {
		norm.Epoch = uint64(telemetry.DefaultEpoch)
	}
	if verr := norm.Validate(); verr != nil {
		return verr
	}
	run, _ := lookup(norm.Experiment)
	opts := norm.BenchOptions()
	capture := bench.NewCapture(norm.Epoch)
	capture.SetFlightDepth(depth)
	opts.Capture = capture

	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("spec: dump-flight re-run panicked: %v", r)
			}
		}()
		if _, _, _, rerr := run(norm, opts); rerr != nil {
			err = rerr
		}
	}()
	if werr := flight.WriteNDJSON(w, capture.FlightRecorders(), nil); werr != nil {
		return werr
	}
	return err
}

// Record is one experiment's entry in a run document (identical to the
// gsbench -json shape, including the committed BENCH_seed.json).
type Record struct {
	Experiment string               `json:"experiment"`
	WallNS     int64                `json:"wall_ns"`
	Summary    any                  `json:"summary,omitempty"`
	Result     any                  `json:"result"`
	Sampled    []bench.SampledEntry `json:"sampled,omitempty"`
	Telemetry  []TelemetryEntry     `json:"telemetry,omitempty"`
}

// Document is the top-level run-document shape: a manifest plus one
// record per experiment. gsbench -json writes one for the selected
// experiments; the farm stores one per sweep point.
type Document struct {
	Manifest    telemetry.Manifest `json:"manifest"`
	Experiments []Record           `json:"experiments"`
}

// Record condenses the outcome into its document entry.
func (o *Outcome) Record() Record {
	return Record{
		Experiment: o.Spec.Experiment,
		WallNS:     o.WallNS,
		Summary:    o.Summary,
		Result:     o.Result,
		Sampled:    o.Sampled,
		Telemetry:  o.Telemetry,
	}
}

// Marshal renders a document exactly as gsbench -json does: indented,
// with a trailing newline.
func (d *Document) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunDocument executes one spec and returns its single-experiment run
// document, the unit the result cache stores under the spec hash. The
// simulation is deterministic, so everything in the document except
// wall_ns is identical run to run; wall_ns records the execution that
// actually produced the stored bytes.
func RunDocument(s *Spec) ([]byte, error) {
	out, err := Run(s)
	if err != nil {
		return nil, err
	}
	doc := &Document{
		Manifest:    out.Spec.Manifest(runtime.Version()),
		Experiments: []Record{out.Record()},
	}
	return doc.Marshal()
}
