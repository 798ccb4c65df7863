package fib_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/fib"
	"repro/internal/hs"
)

// TestSubspaceRange pins the one copy of the prefix→subspace arithmetic
// that both the shard coordinator and the in-process workers route with:
// long prefixes hit one subspace, /0–/2 prefixes span an aligned block of
// the 8, and everything the router cannot read is "unknown — deliver
// everywhere". Each known range is cross-checked against the compiled
// predicates: the prefix must intersect exactly the universes in range.
func TestSubspaceRange(t *testing.T) {
	const width, n, bits = 8, 8, 3
	pfx := func(field string, value uint64, plen int) fib.MatchDesc {
		return fib.MatchDesc{{Field: field, Kind: fib.MatchPrefix, Value: value, Len: plen}}
	}
	cases := []struct {
		name   string
		desc   fib.MatchDesc
		n      int
		lo, hi int
		ok     bool
	}{
		{"/8 in the last subspace", pfx("dst", 0xFF, 8), n, 7, 7, true},
		{"/5 in subspace 2", pfx("dst", 0x48, 5), n, 2, 2, true},
		{"/3 is exactly one subspace", pfx("dst", 0xA0, 3), n, 5, 5, true},
		{"/3 with don't-care bits set", pfx("dst", 0xBF, 3), n, 5, 5, true},
		{"/2 spans two", pfx("dst", 0x40, 2), n, 2, 3, true},
		{"/1 spans the upper half", pfx("dst", 0x80, 1), n, 4, 7, true},
		{"/1 with don't-care bits set", pfx("dst", 0x7F, 1), n, 0, 3, true},
		{"/0 spans all", pfx("dst", 0, 0), n, 0, 7, true},
		{"multi-field: the dst prefix bounds it", fib.MatchDesc{
			{Field: "src", Kind: fib.MatchPrefix, Value: 0x10, Len: 4},
			{Field: "dst", Kind: fib.MatchPrefix, Value: 0x20, Len: 4}}, n, 1, 1, true},
		{"one subspace", pfx("dst", 0xC0, 2), 1, 0, 0, true},
		{"as many subspaces as values", pfx("dst", 0x81, 8), 256, 0x81, 0x81, true},

		{"ternary on the field", fib.MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 1}}, n, 0, 0, false},
		{"prefix on another field only", pfx("src", 0, 2), n, 0, 0, false},
		{"empty descriptor", nil, n, 0, 0, false},
		{"prefix longer than the field", pfx("dst", 0, 9), n, 0, 0, false},
		{"negative prefix length", pfx("dst", 0, -1), n, 0, 0, false},
		{"value wider than the field", pfx("dst", 0x1FF, 8), n, 0, 0, false},
		{"not a power of two", pfx("dst", 0, 8), 6, 0, 0, false},
		{"more subspaces than the field has values", pfx("dst", 0, 8), 512, 0, 0, false},
		{"no subspaces", pfx("dst", 0, 8), 0, 0, 0, false},
	}
	space := hs.NewSpace(hs.NewLayout(hs.Field{Name: "src", Bits: 8}, hs.Field{Name: "dst", Bits: width}))
	for _, tc := range cases {
		lo, hi, ok := fib.SubspaceRange(tc.desc, "dst", width, tc.n)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("%s: got [%d,%d] ok=%v, want [%d,%d] ok=%v", tc.name, lo, hi, ok, tc.lo, tc.hi, tc.ok)
			continue
		}
		if !ok || tc.n != n {
			continue
		}
		match := space.Compile(tc.desc)
		for i := 0; i < n; i++ {
			universe := space.Prefix("dst", uint64(i)<<(width-bits), bits)
			if hit := space.E.And(match, universe) != bdd.False; hit != (i >= lo && i <= hi) {
				t.Errorf("%s: routed to [%d,%d] but intersects subspace %d = %v", tc.name, lo, hi, i, hit)
			}
		}
	}
	if _, _, ok := fib.SubspaceRange(pfx("dst", 0, 8), "", width, n); ok {
		t.Error("no partition field: want unknown")
	}
	if _, _, ok := fib.SubspaceRange(pfx("dst", 0, 8), "dst", 0, n); ok {
		t.Error("zero field width: want unknown")
	}
}
