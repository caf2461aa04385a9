package bench

import (
	"reflect"
	"testing"
)

// TestWorkersDeterminism pins the runner contract: every worker count
// produces identical results, because run seeds are derived from the job
// index alone and each job builds a private simulation rig. Workers=1 is
// the historical serial order, so this also proves the parallel harness
// did not change any experiment's numbers.
func TestWorkersDeterminism(t *testing.T) {
	serial := QuickOptions()
	serial.Workers = 1
	par := QuickOptions()
	par.Workers = 8

	s9, err := RunFig9(serial)
	if err != nil {
		t.Fatal(err)
	}
	p9, err := RunFig9(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s9.Runs, p9.Runs) {
		t.Errorf("Fig9 runs differ between Workers=1 and Workers=8")
	}
	if s9.Table().String() != p9.Table().String() {
		t.Errorf("Fig9 tables differ:\n-- serial --\n%s\n-- parallel --\n%s",
			s9.Table().String(), p9.Table().String())
	}

	s10, err := RunFig10(serial)
	if err != nil {
		t.Fatal(err)
	}
	p10, err := RunFig10(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s10.Runs, p10.Runs) {
		t.Errorf("Fig10 runs differ between Workers=1 and Workers=8")
	}
	if s10.Table().String() != p10.Table().String() {
		t.Errorf("Fig10 tables differ:\n-- serial --\n%s\n-- parallel --\n%s",
			s10.Table().String(), p10.Table().String())
	}

	// The §5.3 use cases take their sizes as arguments and the rest from
	// Options, Workers included.
	serial.Txns, par.Txns = 100, 100 // graph vertex updates
	for _, run := range []struct {
		name string
		fn   func(Options) (any, error)
	}{
		{"graph", func(o Options) (any, error) { return RunGraph(1024, 4, o) }},
		{"kvstore", func(o Options) (any, error) { return RunKVStore(256, o) }},
		{"pixels", func(o Options) (any, error) { return RunPixels(512, 50, o) }},
	} {
		s, err := run.fn(serial)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		p, err := run.fn(par)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("%s results differ between Workers=1 and Workers=8:\n%+v\n%+v", run.name, s, p)
		}
	}
}
