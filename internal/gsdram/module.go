package gsdram

import "fmt"

// Geometry describes the storage organisation of a rank as seen by the
// memory controller: banks × rows × columns, where one column holds one
// cache line (Chips × 8 bytes) spread across the chips.
type Geometry struct {
	Banks int // banks per rank
	Rows  int // rows per bank
	Cols  int // cache lines per row (per rank); must be a power of two
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("gsdram: geometry dimensions must be positive, got %+v", g)
	}
	if g.Cols&(g.Cols-1) != 0 {
		return fmt.Errorf("gsdram: Cols must be a power of two, got %d", g.Cols)
	}
	return nil
}

// Lines returns the total number of cache lines the geometry stores.
func (g Geometry) Lines() int { return g.Banks * g.Rows * g.Cols }

// Module is a functional model of a GS-DRAM module: it stores data exactly
// as the shuffled chips would and serves reads/writes for any (column,
// pattern) combination. One Module models one rank.
//
// The module enforces the paper's system contract (§4.3): data structures
// opt in to shuffling per write, mirroring the per-page shuffle flag. A
// patterned (non-zero pattern) access over unshuffled data would return
// words from the wrong cache lines, exactly as real GS-DRAM would; the
// Module permits it so tests can demonstrate the failure mode, but the OS
// layer (internal/vm) only issues patterned accesses to shuffled pages.
type Module struct {
	params  Params
	geom    Geometry
	shuffle ShuffleFunc

	// pages is the rank's row directory: row key bank*Rows+row lives at
	// pages[key>>pageShift].rows[key&(pageRows-1)]. Row storage is
	// allocated lazily one DRAM row at a time (nil page or nil row =
	// untouched, reads as zero like freshly initialised DRAM in the
	// model). Within a row, words are indexed by chipColumn*Chips + chip
	// — each chip's local column address — so the layout matches the
	// physical chips bit for bit.
	pages []*rowPage

	// ownedPages is a bitset over pages marking the pages this module
	// owns exclusively; each owned page's own bitmap (rowPage.owned)
	// marks the rows it owns exclusively. After a Clone neither side
	// owns any page, so a module copies a page's row headers before its
	// first write into the page, and a row's words before its first
	// write to the row (copy-on-write at both levels).
	ownedPages []uint64

	// pagesShared marks that pages and ownedPages are still the shared
	// tables of a Clone pair: ownedPages is then stale, and the first
	// mutation must replace both (unshare) before touching either.
	// Shadow-mode sampled runs never write the machine, so their clones
	// stay in this state for their whole lifetime and the clone costs
	// O(1).
	pagesShared bool

	// plans is the precomputed gather-plan table, indexed by
	// ((shuffledBit*patterns)+pattern)*Cols + column. It is built once at
	// construction (the software analogue of the CTL being pure
	// combinational logic), so the per-command path never allocates. For
	// configurations whose (pattern x column) space is too large to
	// enumerate, plans is nil and planCache memoises plans on demand.
	plans     []gatherPlan
	planCache map[planKey]*gatherPlan

	// chipShift/chipMask precompute the word-index split for the power-of-
	// two chip count, avoiding a division per functional word access.
	chipShift uint
	chipMask  int
}

// pageShift sets the row directory's page size: pageRows rows per page.
// A page's row headers (12 KB) are the unit the first write after a
// Clone copies, so a run that writes a few hundred rows copies a few
// pages instead of the whole Banks×Rows table.
const (
	pageShift = 9
	pageRows  = 1 << pageShift
)

// rowPage is one page of the row directory: pageRows row slices plus the
// bitset of rows whose storage the page's owner holds exclusively.
type rowPage struct {
	rows  [pageRows][]uint64
	owned [pageRows / 64]uint64
}

// planKey identifies a cached gather plan in the lazy fallback.
type planKey struct {
	patt     Pattern
	col      int
	shuffled bool
}

// maxDensePlans bounds the precomputed plan table: 2 x patterns x columns
// entries. Every configuration used by the paper (and the experiment
// suite) is far below this; only exotic wide-pattern setups fall back to
// the lazy cache.
const maxDensePlans = 1 << 16

// NewModule returns a zero-filled module with the paper's default
// shuffling function. It panics on invalid parameters, which are
// programmer errors.
func NewModule(p Params, g Geometry) *Module {
	m, err := NewModuleFunc(p, g, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// NewModuleFunc returns a module with a programmable shuffling function
// (paper §6.1). A nil fn selects the default column-LSB function.
func NewModuleFunc(p Params, g Geometry, fn ShuffleFunc) (*Module, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		fn = DefaultShuffle(p.ShuffleStages)
	}
	npages := (g.Banks*g.Rows + pageRows - 1) >> pageShift
	m := &Module{
		params:     p,
		geom:       g,
		shuffle:    fn,
		pages:      make([]*rowPage, npages),
		ownedPages: make([]uint64, (npages+63)/64),
		chipShift:  uint(p.chipBits()),
		chipMask:   p.Chips - 1,
	}
	patterns := int(p.MaxPattern()) + 1
	if entries := 2 * patterns * g.Cols; entries <= maxDensePlans {
		// Precompute every (shuffled, pattern, column) gather plan into one
		// contiguous backing array: three ints per line position.
		m.plans = make([]gatherPlan, entries)
		backing := make([]int, entries*3*p.Chips)
		for i := range m.plans {
			pl := &m.plans[i]
			pl.chip, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			pl.chipCol, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			pl.logical, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			shuffled := i >= patterns*g.Cols
			rest := i % (patterns * g.Cols)
			m.buildPlan(pl, Pattern(rest/g.Cols), rest%g.Cols, shuffled)
		}
	} else {
		m.planCache = make(map[planKey]*gatherPlan)
	}
	return m, nil
}

// Clone returns an independent copy of the module's contents. The
// immutable state — parameters, shuffle function and precomputed gather
// plans — is shared with the original. Row storage is shared
// copy-on-write: both modules mark every page of the row directory as
// shared, copy a page's row headers the first time they write into the
// page and a row's words the first time they write to the row, so
// writes to either module never appear in the other while the clone
// itself costs O(1). Cloning a populated module is therefore far
// cheaper than re-running the writes that populated it, which is how
// the experiment harness stamps out per-run machines.
func (m *Module) Clone() *Module {
	n := *m
	// Neither side owns any page after a clone: the directory and page
	// bitmap are shared, and the first write through either module
	// replaces them with a private directory copy and a zeroed bitmap
	// (unshare) before mutating. A clone that never writes the module —
	// a shadow-overlay sampled run reads and writes only its logical
	// overlay — never copies anything.
	m.pagesShared, n.pagesShared = true, true
	if m.planCache != nil {
		// Lazy-plan configurations get their own memo map (entries are
		// immutable and safely shared; the map itself is not).
		n.planCache = make(map[planKey]*gatherPlan, len(m.planCache))
		for k, v := range m.planCache {
			n.planCache[k] = v
		}
	}
	return &n
}

// Params returns the module's GS-DRAM parameters.
func (m *Module) Params() Params { return m.params }

// Geometry returns the module's storage organisation.
func (m *Module) Geometry() Geometry { return m.geom }

// row returns the storage of one DRAM row for reading: nil for an
// untouched row.
func (m *Module) row(bank, row int) []uint64 {
	key := bank*m.geom.Rows + row
	p := m.pages[key>>pageShift]
	if p == nil {
		return nil
	}
	return p.rows[key&(pageRows-1)]
}

// writableRow returns the storage of one DRAM row for writing. It
// allocates an untouched row and copies a page or row still shared with
// a Clone sibling before returning it, so the caller may mutate the
// result.
func (m *Module) writableRow(bank, row int) []uint64 {
	if m.pagesShared {
		m.unshare()
	}
	key := bank*m.geom.Rows + row
	pi := key >> pageShift
	p := m.pages[pi]
	if bit := uint64(1) << (uint(pi) & 63); m.ownedPages[pi>>6]&bit == 0 {
		np := new(rowPage)
		if p != nil {
			np.rows = p.rows // rows stay shared until written
		}
		p = np
		m.pages[pi] = p
		m.ownedPages[pi>>6] |= bit
	}
	r := key & (pageRows - 1)
	s := p.rows[r]
	if bit := uint64(1) << (uint(r) & 63); p.owned[r>>6]&bit == 0 {
		if s == nil {
			s = make([]uint64, m.geom.Cols*m.params.Chips)
		} else {
			s = append([]uint64(nil), s...)
		}
		p.rows[r] = s
		p.owned[r>>6] |= bit
	}
	return s
}

// unshare gives the module a private page directory and page bitmap
// before its first post-clone write: Banks·Rows/pageRows pointers, not a
// header per row. The sibling keeps the shared (now immutable to us)
// arrays.
func (m *Module) unshare() {
	m.pages = append([]*rowPage(nil), m.pages...)
	m.ownedPages = make([]uint64, len(m.ownedPages))
	m.pagesShared = false
}

// setWord stores one word at (bank, row, chipCol, chip).
func (m *Module) setWord(bank, row, chipCol, chip int, v uint64) {
	m.writableRow(bank, row)[chipCol*m.params.Chips+chip] = v
}

// getWord loads one word at (bank, row, chipCol, chip); untouched rows
// read as zero.
func (m *Module) getWord(bank, row, chipCol, chip int) uint64 {
	s := m.row(bank, row)
	if s == nil {
		return 0
	}
	return s[chipCol*m.params.Chips+chip]
}

func (m *Module) checkAddr(bank, row, col int) error {
	if bank < 0 || bank >= m.geom.Banks {
		return fmt.Errorf("gsdram: bank %d out of range [0,%d)", bank, m.geom.Banks)
	}
	if row < 0 || row >= m.geom.Rows {
		return fmt.Errorf("gsdram: row %d out of range [0,%d)", row, m.geom.Rows)
	}
	if col < 0 || col >= m.geom.Cols {
		return fmt.Errorf("gsdram: column %d out of range [0,%d)", col, m.geom.Cols)
	}
	return nil
}

func (m *Module) checkPattern(patt Pattern) error {
	if patt > m.params.MaxPattern() {
		return fmt.Errorf("gsdram: pattern %#x exceeds %d pattern bits", uint32(patt), m.params.PatternBits)
	}
	return nil
}

// gatherPlan describes, for the cache line returned by a (col, patt) READ,
// which chip and chip-local column supplies each position of the line.
// Positions are ordered by ascending logical word index within the row, so
// the assembled line matches the presentation of Figure 7. Each slice has
// exactly Chips elements.
type gatherPlan struct {
	chip    []int // chip supplying position i
	chipCol []int // that chip's local column
	logical []int // logical word index within the row
}

// buildPlan fills pl with the gather plan for (patt, col). shuffled
// selects whether the target data was written with shuffling enabled.
func (m *Module) buildPlan(pl *gatherPlan, patt Pattern, col int, shuffled bool) {
	n := m.params.Chips
	for k := 0; k < n; k++ {
		c := m.params.CTL(k, patt, col)
		word := k
		if shuffled {
			word = k ^ m.shuffle(c)
		}
		pl.chip[k], pl.chipCol[k], pl.logical[k] = k, c, c*n+word
	}
	// Order by logical index (insertion sort; n <= 64).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && pl.logical[j-1] > pl.logical[j]; j-- {
			pl.logical[j-1], pl.logical[j] = pl.logical[j], pl.logical[j-1]
			pl.chip[j-1], pl.chip[j] = pl.chip[j], pl.chip[j-1]
			pl.chipCol[j-1], pl.chipCol[j] = pl.chipCol[j], pl.chipCol[j-1]
		}
	}
}

// plan returns the (precomputed or memoised) gather plan for (patt, col).
// The returned plan is shared and must not be modified.
func (m *Module) plan(patt Pattern, col int, shuffled bool) *gatherPlan {
	if m.plans != nil {
		idx := int(patt)*m.geom.Cols + col
		if shuffled {
			idx += len(m.plans) / 2
		}
		return &m.plans[idx]
	}
	key := planKey{patt: patt, col: col, shuffled: shuffled}
	if pl, ok := m.planCache[key]; ok {
		return pl
	}
	n := m.params.Chips
	backing := make([]int, 3*n)
	pl := &gatherPlan{chip: backing[:n:n], chipCol: backing[n : 2*n : 2*n], logical: backing[2*n:]}
	m.buildPlan(pl, patt, col, shuffled)
	m.planCache[key] = pl
	return pl
}

// WriteLine scatters a cache line to the module. For the default pattern
// with shuffle enabled the words pass through the shuffling network before
// landing on the chips (paper §3.2); with shuffle disabled the words are
// stored in identity order (a non-GS data structure). For non-zero
// patterns, each word is routed to the chip and chip-local column computed
// by the CTL — a gathered scatter (pattstore).
//
// line must hold exactly Chips words.
func (m *Module) WriteLine(bank, row, col int, patt Pattern, shuffled bool, line []uint64) error {
	if err := m.checkAddr(bank, row, col); err != nil {
		return err
	}
	if err := m.checkPattern(patt); err != nil {
		return err
	}
	if len(line) != m.params.Chips {
		return fmt.Errorf("gsdram: line has %d words, want %d", len(line), m.params.Chips)
	}
	g := m.plan(patt, col, shuffled)
	s, n := m.writableRow(bank, row), m.params.Chips
	for i, w := range line {
		s[g.chipCol[i]*n+g.chip[i]] = w
	}
	return nil
}

// ReadLine gathers a cache line from the module into dst (which must hold
// exactly Chips words) and returns the logical word indices (within the
// row) that each position of dst came from. With the default pattern this
// is an ordinary cache-line read; with a non-zero pattern it is a one-READ
// gather (paper §3.4).
//
// The returned index slice aliases the module's precomputed plan table:
// it is valid until the module is garbage collected, but callers must not
// modify it. The steady-state path performs no allocations.
func (m *Module) ReadLine(bank, row, col int, patt Pattern, shuffled bool, dst []uint64) ([]int, error) {
	if err := m.checkAddr(bank, row, col); err != nil {
		return nil, err
	}
	if err := m.checkPattern(patt); err != nil {
		return nil, err
	}
	if len(dst) != m.params.Chips {
		return nil, fmt.Errorf("gsdram: dst has %d words, want %d", len(dst), m.params.Chips)
	}
	g := m.plan(patt, col, shuffled)
	s := m.row(bank, row)
	if s == nil {
		clear(dst)
		return g.logical, nil
	}
	n := m.params.Chips
	for i := range dst {
		dst[i] = s[g.chipCol[i]*n+g.chip[i]]
	}
	return g.logical, nil
}

// WriteWord stores a single 8-byte word at a logical position within a row
// without going through a cache line: logical index l = col*Chips + word.
// It is a test/setup convenience, equivalent to a read-modify-write of the
// containing line.
func (m *Module) WriteWord(bank, row, logical int, shuffled bool, v uint64) error {
	col := logical >> m.chipShift
	word := logical & m.chipMask
	if err := m.checkAddr(bank, row, col); err != nil {
		return err
	}
	chip := word
	if shuffled {
		chip = word ^ m.shuffle(col)
	}
	m.setWord(bank, row, col, chip, v)
	return nil
}

// ReadWord reads the single 8-byte word at logical index l = col*Chips +
// word within a row.
func (m *Module) ReadWord(bank, row, logical int, shuffled bool) (uint64, error) {
	col := logical >> m.chipShift
	word := logical & m.chipMask
	if err := m.checkAddr(bank, row, col); err != nil {
		return 0, err
	}
	chip := word
	if shuffled {
		chip = word ^ m.shuffle(col)
	}
	return m.getWord(bank, row, col, chip), nil
}

// ForEachWord visits every word of every allocated DRAM row, in
// deterministic (bank, row, chipCol, chip) order, including words that
// are still zero. It is the state-extraction hook the differential
// verification harness uses to compare the module's physical chip layout
// word-for-word against an independent golden model. Untouched rows
// (never written) are skipped; they read as zero through every other
// accessor.
func (m *Module) ForEachWord(fn func(bank, row, chipCol, chip int, v uint64)) {
	m.forEachRow(func(key int, s []uint64) {
		bank := key / m.geom.Rows
		row := key % m.geom.Rows
		for cc := 0; cc < m.geom.Cols; cc++ {
			for chip := 0; chip < m.params.Chips; chip++ {
				fn(bank, row, cc, chip, s[cc*m.params.Chips+chip])
			}
		}
	})
}

// forEachRow visits every allocated row in ascending key
// (bank*Rows+row) order.
func (m *Module) forEachRow(fn func(key int, s []uint64)) {
	for pi, p := range m.pages {
		if p == nil {
			continue
		}
		for r, s := range &p.rows {
			if s != nil {
				fn(pi<<pageShift|r, s)
			}
		}
	}
}

// ChipWord returns the raw word stored on a chip at a chip-local column —
// the physical view used to verify the layout of Figure 6.
func (m *Module) ChipWord(bank, row, chipCol, chip int) (uint64, error) {
	if err := m.checkAddr(bank, row, chipCol); err != nil {
		return 0, err
	}
	if chip < 0 || chip >= m.params.Chips {
		return 0, fmt.Errorf("gsdram: chip %d out of range [0,%d)", chip, m.params.Chips)
	}
	return m.getWord(bank, row, chipCol, chip), nil
}
