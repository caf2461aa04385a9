package gsdram

import (
	"bytes"
	"os"
	"testing"

	"gsdram/internal/ckpt"
)

// cowGeom spans three pages of the row directory with a partial last
// page (2*700 = 1400 rows = 512+512+376), so bank 0 rows 511/512 sit on
// either side of a page boundary, bank 1 row 0 (key 700) is mid-page and
// the last row of the last bank is the last row of the partial page.
var cowGeom = Geometry{Banks: 2, Rows: 700, Cols: 16}

// cowRows are the (bank, row) pairs the copy-on-write tests write: both
// sides of every page boundary and the two ends of the key space.
var cowRows = [][2]int{{0, 0}, {0, 511}, {0, 512}, {1, 0}, {1, 323}, {1, 324}, {1, 699}}

// cowLine returns a line whose words identify (gen, bank, row, col).
func cowLine(gen, bank, row, col int) []uint64 {
	line := make([]uint64, GS844.Chips)
	for i := range line {
		line[i] = uint64(gen)<<48 | uint64(bank)<<40 | uint64(row)<<24 | uint64(col)<<8 | uint64(i)
	}
	return line
}

// writeGen writes generation gen's line to column col of every cowRows row.
func writeGen(t *testing.T, m *Module, gen, col int) {
	t.Helper()
	for _, br := range cowRows {
		if err := m.WriteLine(br[0], br[1], col, DefaultPattern, true, cowLine(gen, br[0], br[1], col)); err != nil {
			t.Fatal(err)
		}
	}
}

// expectGen checks that column col of every cowRows row holds generation
// gen's line (gen < 0: all zeros).
func expectGen(t *testing.T, name string, m *Module, gen, col int) {
	t.Helper()
	got := make([]uint64, GS844.Chips)
	for _, br := range cowRows {
		if _, err := m.ReadLine(br[0], br[1], col, DefaultPattern, true, got); err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, GS844.Chips)
		if gen >= 0 {
			want = cowLine(gen, br[0], br[1], col)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bank %d row %d col %d word %d = %#x, want %#x", name, br[0], br[1], col, i, got[i], want[i])
			}
		}
	}
}

// TestCloneChainIsolation writes on every generation of a template →
// child → grandchild chain, at both the column each generation shares
// and one only it writes, and requires that no module sees a sibling's
// writes.
func TestCloneChainIsolation(t *testing.T) {
	tmpl := NewModule(GS844, cowGeom)
	writeGen(t, tmpl, 0, 0)
	child := tmpl.Clone()
	writeGen(t, child, 1, 0)
	writeGen(t, child, 1, 1)
	grand := child.Clone()
	writeGen(t, grand, 2, 0)
	writeGen(t, grand, 2, 2)
	// The older generations write again after their clones exist.
	writeGen(t, tmpl, 3, 3)
	writeGen(t, child, 4, 3)

	expectGen(t, "template", tmpl, 0, 0)
	expectGen(t, "template", tmpl, -1, 1)
	expectGen(t, "template", tmpl, -1, 2)
	expectGen(t, "template", tmpl, 3, 3)

	expectGen(t, "child", child, 1, 0)
	expectGen(t, "child", child, 1, 1)
	expectGen(t, "child", child, -1, 2)
	expectGen(t, "child", child, 4, 3)

	expectGen(t, "grandchild", grand, 2, 0)
	expectGen(t, "grandchild", grand, 1, 1)
	expectGen(t, "grandchild", grand, 2, 2)
	expectGen(t, "grandchild", grand, -1, 3)
}

// TestCloneSiblingsIsolated clones one template twice and writes the same
// rows in both siblings: each write must stay in its own module.
func TestCloneSiblingsIsolated(t *testing.T) {
	tmpl := NewModule(GS844, cowGeom)
	writeGen(t, tmpl, 0, 0)
	a, b := tmpl.Clone(), tmpl.Clone()
	writeGen(t, a, 1, 0)
	writeGen(t, b, 2, 0)
	expectGen(t, "template", tmpl, 0, 0)
	expectGen(t, "sibling a", a, 1, 0)
	expectGen(t, "sibling b", b, 2, 0)
}

// TestPageBoundaryRows writes single words to the rows on either side of
// each page boundary of a clone and checks that only the written row
// changed, in the clone and not in its template.
func TestPageBoundaryRows(t *testing.T) {
	tmpl := NewModule(GS844, cowGeom)
	writeGen(t, tmpl, 0, 0)
	for _, br := range cowRows {
		c := tmpl.Clone()
		if err := c.WriteWord(br[0], br[1], 5, false, 0xABCD); err != nil {
			t.Fatal(err)
		}
		for _, other := range cowRows {
			v, err := c.ReadWord(other[0], other[1], 5, false)
			if err != nil {
				t.Fatal(err)
			}
			tv, err := tmpl.ReadWord(other[0], other[1], 5, false)
			if err != nil {
				t.Fatal(err)
			}
			if other == br && v != 0xABCD {
				t.Errorf("write to bank %d row %d: clone reads %#x, want 0xabcd", br[0], br[1], v)
			}
			if other != br && v != tv {
				t.Errorf("write to bank %d row %d leaked into bank %d row %d", br[0], br[1], other[0], other[1])
			}
			if tv == 0xABCD {
				t.Errorf("write to bank %d row %d of a clone reached the template", br[0], br[1])
			}
		}
	}
}

func saveBytes(m *Module) []byte {
	w := ckpt.NewWriter()
	m.Save(w)
	return w.Bytes()
}

// TestLoadLeavesCloneSiblingUntouched loads a checkpoint into a module
// whose pages are still shared with a Clone sibling, then writes the
// loaded module: the sibling must keep its own contents.
func TestLoadLeavesCloneSiblingUntouched(t *testing.T) {
	src := NewModule(GS844, cowGeom)
	writeGen(t, src, 7, 1)
	saved := saveBytes(src)

	m := NewModule(GS844, cowGeom)
	writeGen(t, m, 0, 0)
	sib := m.Clone()
	before := saveBytes(sib)
	if err := m.Load(ckpt.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	writeGen(t, m, 8, 2)
	if !bytes.Equal(saveBytes(sib), before) {
		t.Fatal("Load or a write after it changed the Clone sibling")
	}
	expectGen(t, "loaded", m, -1, 0)
	expectGen(t, "loaded", m, 7, 1)
	expectGen(t, "loaded", m, 8, 2)
	expectGen(t, "sibling", sib, 0, 0)
	expectGen(t, "sibling", sib, -1, 2)
}

// populateCheckpointModule builds the module checkpointed in
// testdata/module.ckpt: a template written with every pattern, both
// shuffle modes and single words, then a clone that overwrites part of
// it, so the saved rows mix shared and copied storage.
func populateCheckpointModule(t *testing.T) *Module {
	t.Helper()
	tmpl := NewModule(GS844, cowGeom)
	for i, br := range cowRows {
		for col := 0; col < cowGeom.Cols; col += 3 {
			patt := Pattern((i + col) % int(GS844.MaxPattern()+1))
			if err := tmpl.WriteLine(br[0], br[1], col, patt, col%2 == 0, cowLine(i, br[0], br[1], col)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := tmpl.Clone()
	writeGen(t, m, 9, 4)
	for i, br := range [][2]int{{0, 100}, {0, 512}, {1, 699}} {
		if err := m.WriteWord(br[0], br[1], 17+i, true, 0xC0FFEE+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestCheckpointCompatibility pins the module checkpoint format:
// testdata/module.ckpt was written by Save from the dense row table that
// preceded the paged directory. It must load unchanged, re-save
// byte-identically, hold exactly what populateCheckpointModule writes,
// and Save of a freshly populated module must produce the same bytes.
// The file is a compatibility fixture; it is never regenerated.
func TestCheckpointCompatibility(t *testing.T) {
	golden, err := os.ReadFile("testdata/module.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModule(GS844, cowGeom)
	r := ckpt.NewReader(golden)
	if err := m.Load(r); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Load left %d bytes unread", r.Remaining())
	}
	if !bytes.Equal(saveBytes(m), golden) {
		t.Fatal("re-saving the loaded checkpoint is not byte-identical")
	}
	want := populateCheckpointModule(t)
	if !bytes.Equal(saveBytes(want), golden) {
		t.Fatal("Save of the populated module differs from the checkpoint fixture")
	}
	type word struct{ bank, row, chipCol, chip int }
	got := map[word]uint64{}
	m.ForEachWord(func(bank, row, chipCol, chip int, v uint64) {
		got[word{bank, row, chipCol, chip}] = v
	})
	n := 0
	want.ForEachWord(func(bank, row, chipCol, chip int, v uint64) {
		n++
		if g, ok := got[word{bank, row, chipCol, chip}]; !ok || g != v {
			t.Fatalf("bank %d row %d chipCol %d chip %d: loaded %#x (present %v), want %#x", bank, row, chipCol, chip, g, ok, v)
		}
	})
	if n != len(got) {
		t.Fatalf("loaded module visits %d words, populated module %d", len(got), n)
	}
}

// TestForEachWordOrder pins the visit order checkpoint and differential
// tests rely on: ascending (bank, row, chipCol, chip).
func TestForEachWordOrder(t *testing.T) {
	m := populateCheckpointModule(t)
	prev := -1
	m.ForEachWord(func(bank, row, chipCol, chip int, _ uint64) {
		k := ((bank*cowGeom.Rows+row)*cowGeom.Cols+chipCol)*GS844.Chips + chip
		if k <= prev {
			t.Fatalf("ForEachWord visited bank %d row %d chipCol %d chip %d out of order", bank, row, chipCol, chip)
		}
		prev = k
	})
	if prev < 0 {
		t.Fatal("ForEachWord visited nothing")
	}
}

// TestLoadRejectsBadRows pins Load's checks on checkpoint input: a row
// index past the geometry (including one inside the partial last page
// of the directory), a duplicate row and a row of the wrong length.
func TestLoadRejectsBadRows(t *testing.T) {
	rowWords := cowGeom.Cols * GS844.Chips
	nrows := cowGeom.Banks * cowGeom.Rows
	cases := map[string][][2]int{ // name -> (row index, words) per row
		"past last row":    {{nrows, rowWords}},
		"duplicate row":    {{512, rowWords}, {512, rowWords}},
		"short row":        {{3, rowWords - 1}},
		"index in no page": {{1 << 20, rowWords}},
	}
	for name, rows := range cases {
		w := ckpt.NewWriter()
		w.Tag("module")
		w.U32(uint32(len(rows)))
		for _, r := range rows {
			w.U32(uint32(r[0]))
			w.U64s(make([]uint64, r[1]))
		}
		m := NewModule(GS844, cowGeom)
		if err := m.Load(ckpt.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: Load accepted the checkpoint", name)
		}
	}
}
