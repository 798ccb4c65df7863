package bdd

// NewTiny returns an engine whose tables start at four slots (the
// smallest unique table that holds the terminals at load ≤ 1/2) and
// whose computed cache stops at eight, so a few dozen operations
// exercise every probe wrap-around, doubling and overwrite.
func NewTiny(nvars int) *Engine { return newSized(nvars, 4, 8) }

// TableSizes reports the unique-table and computed-cache slot counts.
func (e *Engine) TableSizes() (unique, cache int) { return len(e.unique), len(e.cache) }

// Mk exposes the unique-table lookup-or-insert to the benchmarks.
func (e *Engine) Mk(level int32, lo, hi Ref) Ref { return e.mk(level, lo, hi) }
