package atoms

// NewTiny returns an engine whose intern table starts at two slots and
// whose op cache is two slots growing to at most four, so a few dozen
// operations exercise every probe-chain, overwrite and resize path.
func NewTiny(nvars int) *Engine { return newSized(nvars, 2, 2, 4) }
