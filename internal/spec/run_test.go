package spec

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"gsdram/internal/flight"
)

// quickSpec is a fast fig9 rig for run tests.
func quickSpec() *Spec {
	return &Spec{
		Experiment: "fig9",
		Tuples:     1024,
		Txns:       50,
		GemmSizes:  []int{32},
		KVPairs:    256,
		Vertices:   512,
		Degree:     4,
		Seed:       7,
	}
}

// zeroWallNS blanks every wall_ns in a run document so two executions
// of a deterministic spec compare equal: wall-clock time is the one
// field that legitimately differs run to run.
func zeroWallNS(t *testing.T, doc []byte) []byte {
	t.Helper()
	var d map[string]any
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("unmarshal document: %v", err)
	}
	exps, ok := d["experiments"].([]any)
	if !ok || len(exps) == 0 {
		t.Fatalf("document has no experiments array")
	}
	for _, e := range exps {
		e.(map[string]any)["wall_ns"] = 0
	}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("re-marshal document: %v", err)
	}
	return out
}

// TestRunDocumentDeterministic is the property the whole cache rests
// on: the same spec produces the same document, byte for byte, modulo
// wall-clock time.
func TestRunDocumentDeterministic(t *testing.T) {
	s := quickSpec()
	d1, err := RunDocument(s)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	d2, err := RunDocument(s)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !bytes.Equal(zeroWallNS(t, d1), zeroWallNS(t, d2)) {
		t.Fatalf("identical specs produced different documents")
	}
}

// TestRunTelemeteredDeterministic covers the telemetered path, which
// threads a per-rig capture context through rig construction.
func TestRunTelemeteredDeterministic(t *testing.T) {
	s := quickSpec()
	s.Telemetry = true
	d1, err := RunDocument(s)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	d2, err := RunDocument(s)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !bytes.Equal(zeroWallNS(t, d1), zeroWallNS(t, d2)) {
		t.Fatalf("identical telemetered specs produced different documents")
	}
	// The telemetered document must actually carry telemetry.
	var doc struct {
		Experiments []struct {
			Telemetry []json.RawMessage `json:"telemetry"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(d1, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.Experiments) != 1 || len(doc.Experiments[0].Telemetry) == 0 {
		t.Fatalf("telemetered document has no telemetry entries")
	}
}

// TestRunSeedChangesResult guards against the hash distinguishing specs
// whose results the simulator does not actually distinguish — the cache
// would still be correct, but the experiment would be broken.
func TestRunSeedChangesResult(t *testing.T) {
	a := quickSpec()
	b := quickSpec()
	b.Seed = a.Seed + 1
	da, err := RunDocument(a)
	if err != nil {
		t.Fatalf("seed %d: %v", a.Seed, err)
	}
	db, err := RunDocument(b)
	if err != nil {
		t.Fatalf("seed %d: %v", b.Seed, err)
	}
	if bytes.Equal(zeroWallNS(t, da), zeroWallNS(t, db)) {
		t.Fatalf("different seeds produced identical documents")
	}
}

// TestRunConcurrent: untelemetered and telemetered specs run
// concurrently in one process, and mixing them must not corrupt either
// side. Run under -race.
func TestRunConcurrent(t *testing.T) {
	base, err := RunDocument(quickSpec())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := zeroWallNS(t, base)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc, err := RunDocument(quickSpec())
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(zeroWallNS(t, doc), want) {
				errs <- bytes.ErrTooLarge // sentinel; message below
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := quickSpec()
			s.Telemetry = true
			if _, err := RunDocument(s); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == bytes.ErrTooLarge {
			t.Fatalf("concurrent run diverged from the serial baseline")
		}
		t.Fatalf("concurrent run failed: %v", err)
	}
}

// TestConcurrentOptionSpecsMatchSerial pins that every per-run setting
// travels with its own run: a default spec, a NoInline spec, an
// L2Latency spec and a telemetered spec executed concurrently in one
// process each produce the document (modulo wall_ns) they produce
// alone, so no setting leaks into a neighbouring run. NoInline must
// leave results unchanged and L2Latency must change them — a rig that
// ignored the option would fail one or the other.
func TestConcurrentOptionSpecsMatchSerial(t *testing.T) {
	specs := []*Spec{quickSpec(), quickSpec(), quickSpec(), quickSpec()}
	specs[1].NoInline = true
	specs[2].L2Latency = 60
	specs[3].Telemetry = true

	serial := make([][]byte, len(specs))
	for i, s := range specs {
		doc, err := RunDocument(s)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = zeroWallNS(t, doc)
	}

	docs := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			docs[i], errs[i] = RunDocument(s)
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !bytes.Equal(zeroWallNS(t, docs[i]), serial[i]) {
			t.Errorf("concurrent run %d diverged from its serial execution", i)
		}
	}

	base, noInline, l2 := resultOf(t, serial[0]), resultOf(t, serial[1]), resultOf(t, serial[2])
	if !bytes.Equal(noInline, base) {
		t.Errorf("NoInline changed the results")
	}
	if bytes.Equal(l2, base) {
		t.Errorf("L2Latency 60 left the results unchanged")
	}
}

// resultOf extracts the first experiment's result and summary from a
// run document, minus the result's Opts echo of the settings.
func resultOf(t *testing.T, doc []byte) []byte {
	t.Helper()
	var d struct {
		Experiments []struct {
			Summary any            `json:"summary"`
			Result  map[string]any `json:"result"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(doc, &d); err != nil || len(d.Experiments) == 0 {
		t.Fatalf("decode document: %v", err)
	}
	e := d.Experiments[0]
	delete(e.Result, "Opts")
	out, err := json.Marshal([]any{e.Summary, e.Result})
	if err != nil {
		t.Fatalf("re-marshal result: %v", err)
	}
	return out
}

// TestConcurrentTelemeteredRunsMatchSerial: two telemetered specs
// executed concurrently must produce documents byte-identical (modulo
// wall_ns) to their serial executions — per-rig capture does not perturb
// results or mix runs across points.
func TestConcurrentTelemeteredRunsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four telemetered simulations")
	}
	specs := []*Spec{quickSpec(), quickSpec()}
	specs[0].Telemetry = true
	specs[1].Telemetry = true
	specs[1].Seed = 99

	serial := make([][]byte, len(specs))
	for i, s := range specs {
		doc, err := RunDocument(s)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = zeroWallNS(t, doc)
	}

	docs := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			docs[i], errs[i] = RunDocument(s)
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !bytes.Equal(zeroWallNS(t, docs[i]), serial[i]) {
			t.Fatalf("concurrent telemetered run %d differs from its serial execution", i)
		}
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	s := quickSpec()
	s.Experiment = "nope"
	if _, err := Run(s); err == nil {
		t.Fatalf("Run accepted an unknown experiment")
	}
	s = quickSpec()
	s.Tuples = 0
	if _, err := Run(s); err == nil {
		t.Fatalf("Run accepted zero tuples")
	}
}

// TestRunFlightCapturesRecorders: RunFlight arms the flight recorder on
// every rig (forcing telemetry on) and the outcome carries the labeled
// rings; the dump is well-formed NDJSON.
func TestRunFlightCapturesRecorders(t *testing.T) {
	out, err := RunFlight(quickSpec(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Flight) == 0 {
		t.Fatal("RunFlight returned no flight recorders")
	}
	if len(out.Flight) != len(out.Runs) {
		t.Fatalf("%d recorders for %d runs", len(out.Flight), len(out.Runs))
	}
	for _, lr := range out.Flight {
		if lr.Rec == nil || lr.Rec.Depth() != 32 {
			t.Fatalf("%s: bad recorder %+v", lr.Label, lr.Rec)
		}
	}
	var buf bytes.Buffer
	if err := flight.WriteNDJSON(&buf, out.Flight, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("gsdram-flight/1")) {
		t.Fatal("dump missing format meta")
	}
}

// TestRunFlightDoesNotChangeResults: the document of a flight-armed run
// is byte-identical (wall time aside) to a telemetered run without the
// recorder — recording must never perturb simulation.
func TestRunFlightDoesNotChangeResults(t *testing.T) {
	tele := quickSpec()
	tele.Telemetry = true
	base, err := Run(tele)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := RunFlight(quickSpec(), 64)
	if err != nil {
		t.Fatal(err)
	}
	baseD := Document{Experiments: []Record{base.Record()}}
	baseDoc, err := baseD.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	armedD := Document{Experiments: []Record{armed.Record()}}
	armedDoc, err := armedD.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeroWallNS(t, baseDoc), zeroWallNS(t, armedDoc)) {
		t.Fatal("flight-armed document differs from unarmed telemetered document")
	}
}

// TestDumpFlight: the one-shot re-run + dump used by the farm on failed
// points writes a meta line plus events.
func TestDumpFlight(t *testing.T) {
	var buf bytes.Buffer
	if err := DumpFlight(quickSpec(), 0, &buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("dump has %d lines, want meta + events", len(lines))
	}
	if !bytes.Contains(lines[0], []byte("gsdram-flight/1")) {
		t.Fatalf("bad meta line: %s", lines[0])
	}
}

// TestL2LatencyChangesResultsAndHash: the ablation knob must actually
// slow the memory system down and must participate in the spec hash
// (it changes results, so cached documents keyed without it would be
// wrong).
func TestL2LatencyChangesResultsAndHash(t *testing.T) {
	base := quickSpec()
	slow := quickSpec()
	slow.L2Latency = 60
	if base.Hash() == slow.Hash() {
		t.Fatal("L2Latency does not affect the spec hash")
	}

	bt := quickSpec()
	bt.Telemetry = true
	st := quickSpec()
	st.Telemetry = true
	st.L2Latency = 60
	outBase, err := Run(bt)
	if err != nil {
		t.Fatal(err)
	}
	outSlow, err := Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(outBase.Runs) == 0 || len(outBase.Runs) != len(outSlow.Runs) {
		t.Fatalf("run counts: %d vs %d", len(outBase.Runs), len(outSlow.Runs))
	}
	// fig9 runs for a fixed simulated horizon, so the knob shows up in
	// the work completed and the metrics, not the end cycle: the run
	// documents must differ.
	doc := func(o *Outcome) []byte {
		d := Document{Experiments: []Record{o.Record()}}
		blob, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return zeroWallNS(t, blob)
	}
	if bytes.Equal(doc(outBase), doc(outSlow)) {
		t.Fatal("tripling the L2 latency changed nothing in the run document")
	}

	// And the default path is unaffected: a fresh default run still
	// matches the first one (the knob resets after the run).
	again, err := Run(bt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc(outBase), doc(again)) {
		t.Fatal("default-latency results changed after an L2Latency run")
	}
}
