package bench_test

import (
	"encoding/json"
	"strings"
	"testing"

	"gsdram/internal/spec"
)

// smallSpec is a reduced-scale spec of the named experiment: every
// experiment of the registry runs in well under a second at this size.
func smallSpec(name string) *spec.Spec {
	return &spec.Spec{
		Experiment: name,
		Tuples:     2048,
		Txns:       500,
		GemmSizes:  []int{32},
		KVPairs:    256,
		Vertices:   1024,
		Degree:     4,
		Seed:       42,
	}
}

// results runs s and returns what a setting must either preserve or
// change: the structured result and summary as JSON with every Opts
// echo removed (it restates the settings under comparison), followed by
// the rendered tables.
func results(t *testing.T, s *spec.Spec) string {
	t.Helper()
	out, err := spec.Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Experiment, err)
	}
	b, err := json.Marshal([]any{out.Result, out.Summary})
	if err != nil {
		t.Fatalf("%s: marshal result: %v", s.Experiment, err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%s: unmarshal result: %v", s.Experiment, err)
	}
	if b, err = json.Marshal(dropOpts(v)); err != nil {
		t.Fatalf("%s: re-marshal result: %v", s.Experiment, err)
	}
	var sb strings.Builder
	sb.Write(b)
	for _, tb := range out.Tables {
		sb.WriteString("\n" + tb.String())
	}
	return sb.String()
}

// dropOpts removes every "Opts" key from a decoded JSON value.
func dropOpts(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "Opts")
		for k, e := range x {
			x[k] = dropOpts(e)
		}
	case []any:
		for i, e := range x {
			x[i] = dropOpts(e)
		}
	}
	return v
}

// TestInlineEquivalence pins the invariant of the event-horizon fast path
// (internal/cpu) for every registered experiment: results — cycles, core
// stats, cache and controller counters, energy, rendered tables — are
// bit-identical between inline execution and the pure event-driven
// reference (Options.NoInline, gsbench -noinline), at both the serial
// and a concurrent worker count. An experiment whose rig ignored the
// option would still pass, so TestL2LatencyReachesEveryRig proves the
// options reach every simulated rig.
func TestInlineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment four times in -short mode")
	}
	for _, workers := range []int{1, 8} {
		for _, name := range spec.Names() {
			s := smallSpec(name)
			s.Workers = workers
			inline := results(t, s)
			s.NoInline = true
			if eventDriven := results(t, s); eventDriven != inline {
				t.Errorf("workers=%d %s: inline and -noinline results differ:\n inline   %.300s\n noinline %.300s",
					workers, name, inline, eventDriven)
			}
		}
	}
}

// TestL2LatencyReachesEveryRig pins that Options reach every simulated
// rig: raising the L2 hit latency changes the result of every
// experiment that simulates the memory system. The four exceptions
// simulate nothing that has an L2 — table1, fig7 and ablation render
// closed-form tables, and fig13 runs on the analytical fastsim model —
// and must be unchanged.
func TestL2LatencyReachesEveryRig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice in -short mode")
	}
	noL2 := map[string]bool{"table1": true, "fig7": true, "ablation": true, "fig13": true}
	simulating := 0
	for _, name := range spec.Names() {
		s := smallSpec(name)
		base := results(t, s)
		s.L2Latency = 60
		changed := results(t, s) != base
		if !noL2[name] {
			simulating++
		}
		if changed == noL2[name] {
			t.Errorf("%s: L2Latency 60 changed the result = %v, want %v", name, changed, !noL2[name])
		}
	}
	if simulating != 17 {
		t.Errorf("%d simulating experiments, want 17", simulating)
	}
}
