package gsdram

import "testing"

// Micro-benchmarks for the column-command hot path. Names are stable so
// before/after runs can be compared with benchstat.

func benchModule(b *testing.B) (*Module, []uint64) {
	b.Helper()
	m := NewModule(GS844, Geometry{Banks: 8, Rows: 16, Cols: 128})
	line := make([]uint64, GS844.Chips)
	for i := range line {
		line[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	// Touch every row once so the steady-state path never allocates row
	// storage inside the measured loop.
	for bank := 0; bank < 8; bank++ {
		for row := 0; row < 16; row++ {
			if err := m.WriteLine(bank, row, 0, DefaultPattern, true, line); err != nil {
				b.Fatal(err)
			}
		}
	}
	return m, line
}

func BenchmarkModuleReadLine(b *testing.B) {
	m, line := benchModule(b)
	patt := m.Params().MaxPattern() // stride-8 gather: the paper's headline op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := i & 127
		if _, err := m.ReadLine(i&7, i&15, col, patt, true, line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModuleWriteLine(b *testing.B) {
	m, line := benchModule(b)
	patt := m.Params().MaxPattern()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := i & 127
		if err := m.WriteLine(i&7, i&15, col, patt, true, line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleCloneWrite clones a module holding a populated table at
// the paper's rank geometry (8 banks × 32768 rows) and performs the
// clone's first write — the cost every experiment run pays to stamp out
// its machine from a template.
func BenchmarkModuleCloneWrite(b *testing.B) {
	g := Geometry{Banks: 8, Rows: 32768, Cols: 128}
	m := NewModule(GS844, g)
	line := make([]uint64, GS844.Chips)
	for key := 0; key < 4096; key++ {
		if err := m.WriteLine(key%g.Banks, key/g.Banks, 0, DefaultPattern, true, line); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		if err := c.WriteLine(i&7, (i>>3)&511, i&127, DefaultPattern, true, line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatherIndices(b *testing.B) {
	p := GS844
	patt := p.MaxPattern()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.GatherIndices(patt, i&127)
	}
}

// The steady-state column-command path must not allocate: runtime of the
// full-system experiments is dominated by these calls.

func TestReadLineZeroAllocs(t *testing.T) {
	m := NewModule(GS844, Geometry{Banks: 1, Rows: 1, Cols: 128})
	line := make([]uint64, GS844.Chips)
	if err := m.WriteLine(0, 0, 0, DefaultPattern, true, line); err != nil {
		t.Fatal(err)
	}
	patt := m.Params().MaxPattern()
	col := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ReadLine(0, 0, col, patt, true, line); err != nil {
			t.Fatal(err)
		}
		col = (col + 1) & 127
	})
	if allocs != 0 {
		t.Errorf("Module.ReadLine allocates %v times per call, want 0", allocs)
	}
}

func TestWriteLineZeroAllocs(t *testing.T) {
	m := NewModule(GS844, Geometry{Banks: 1, Rows: 1, Cols: 128})
	line := make([]uint64, GS844.Chips)
	if err := m.WriteLine(0, 0, 0, DefaultPattern, true, line); err != nil {
		t.Fatal(err)
	}
	patt := m.Params().MaxPattern()
	col := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.WriteLine(0, 0, col, patt, true, line); err != nil {
			t.Fatal(err)
		}
		col = (col + 1) & 127
	})
	if allocs != 0 {
		t.Errorf("Module.WriteLine allocates %v times per call, want 0", allocs)
	}
}

// TestWriteLineOwnedRowAfterCloneZeroAllocs pins the copy-on-write
// steady state: once a clone has written a row (copying its page and
// row), further writes to that row allocate nothing.
func TestWriteLineOwnedRowAfterCloneZeroAllocs(t *testing.T) {
	tmpl := NewModule(GS844, Geometry{Banks: 2, Rows: 1024, Cols: 128})
	line := make([]uint64, GS844.Chips)
	for _, row := range []int{0, 511, 512, 1023} {
		if err := tmpl.WriteLine(1, row, 0, DefaultPattern, true, line); err != nil {
			t.Fatal(err)
		}
	}
	m := tmpl.Clone()
	if err := m.WriteLine(1, 512, 0, DefaultPattern, true, line); err != nil {
		t.Fatal(err)
	}
	patt := m.Params().MaxPattern()
	col := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.WriteLine(1, 512, col, patt, true, line); err != nil {
			t.Fatal(err)
		}
		col = (col + 1) & 127
	})
	if allocs != 0 {
		t.Errorf("Module.WriteLine to an owned row of a clone allocates %v times per call, want 0", allocs)
	}
}

// TestCloneAllocsIndependentOfRows pins Clone at O(1): cloning a
// populated module allocates the same number of objects whatever the
// geometry's row count, because the page directory is shared, not
// copied.
func TestCloneAllocsIndependentOfRows(t *testing.T) {
	var want float64
	for i, rows := range []int{16, 1024, 32768, 1 << 17} {
		m := NewModule(GS844, Geometry{Banks: 8, Rows: rows, Cols: 128})
		line := make([]uint64, GS844.Chips)
		for row := 0; row < rows; row += 7 {
			if err := m.WriteLine(row&7, row, 0, DefaultPattern, true, line); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() { _ = m.Clone() })
		if i == 0 {
			want = allocs
		}
		if allocs != want || allocs > 1 {
			t.Errorf("Clone of a %d-row module allocates %v objects, want %v (and at most 1)", rows, allocs, want)
		}
	}
}

func TestGatherIndicesIntoZeroAllocs(t *testing.T) {
	p := GS844
	patt := p.MaxPattern()
	buf := make([]int, 0, p.Chips)
	col := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = p.GatherIndicesInto(patt, col, buf[:0])
		col = (col + 1) & 127
	})
	if allocs != 0 {
		t.Errorf("Params.GatherIndicesInto allocates %v times per call, want 0", allocs)
	}
}
