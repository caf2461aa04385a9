package gsdram

import (
	"fmt"

	"gsdram/internal/ckpt"
)

// Save serializes the module's mutable contents: the sparse row store.
// Untouched (nil) rows are skipped, so the checkpoint size is
// proportional to the data the workload actually wrote, not the rank
// capacity. Parameters, geometry and the plan tables are construction
// configuration and are re-derived on load.
func (m *Module) Save(w *ckpt.Writer) {
	w.Tag("module")
	populated := 0
	m.forEachRow(func(int, []uint64) { populated++ })
	w.U32(uint32(populated))
	m.forEachRow(func(key int, s []uint64) {
		w.U32(uint32(key))
		w.U64s(s)
	})
}

// Load restores contents written by Save into a module built with the
// same parameters and geometry. Rows absent from the checkpoint are reset
// to untouched.
func (m *Module) Load(r *ckpt.Reader) error {
	r.ExpectTag("module")
	n := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	rowWords := m.geom.Cols * m.params.Chips
	nrows := m.geom.Banks * m.geom.Rows
	// The loaded pages and rows are freshly allocated and exclusively
	// ours — mark them owned so the copy-on-write path does not re-copy
	// them. The directory and page bitmap are built fresh rather than
	// reset in place: the current ones may still be shared with a Clone
	// sibling.
	pages := make([]*rowPage, len(m.pages))
	ownedPages := make([]uint64, len(m.ownedPages))
	for i := 0; i < n; i++ {
		idx := int(r.U32())
		words := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if idx >= nrows {
			return fmt.Errorf("gsdram: checkpoint row index %d out of range (%d rows)", idx, nrows)
		}
		if len(words) != rowWords {
			return fmt.Errorf("gsdram: checkpoint row %d has %d words, geometry needs %d", idx, len(words), rowWords)
		}
		pi, ri := idx>>pageShift, idx&(pageRows-1)
		p := pages[pi]
		if p == nil {
			p = new(rowPage)
			pages[pi] = p
			ownedPages[pi>>6] |= 1 << (uint(pi) & 63)
		}
		if p.rows[ri] != nil {
			return fmt.Errorf("gsdram: duplicate checkpoint row %d", idx)
		}
		p.rows[ri] = words
		p.owned[ri>>6] |= 1 << (uint(ri) & 63)
	}
	m.pages, m.ownedPages = pages, ownedPages
	m.pagesShared = false
	return nil
}
