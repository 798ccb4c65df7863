package fib

import (
	"fmt"
	"math/bits"
)

// MatchKind discriminates the symbolic forms a field constraint can take.
type MatchKind uint8

// Match kinds.
const (
	// MatchPrefix constrains the top Len bits of the field.
	MatchPrefix MatchKind = iota
	// MatchTernary constrains the bits selected by Mask to equal the
	// corresponding bits of Value.
	MatchTernary
)

// FieldMatch is one symbolic per-field constraint.
type FieldMatch struct {
	Field string
	Kind  MatchKind
	Value uint64
	Len   int    // prefix length (MatchPrefix)
	Mask  uint64 // bit mask (MatchTernary)
}

func (f FieldMatch) String() string {
	if f.Kind == MatchPrefix {
		return fmt.Sprintf("%s=%#x/%d", f.Field, f.Value, f.Len)
	}
	return fmt.Sprintf("%s=%#x&%#x", f.Field, f.Value, f.Mask)
}

// MatchDesc is the symbolic description of a rule's match: a conjunction
// of per-field constraints. The compiled BDD predicate in Rule.Match is
// authoritative for verification; the descriptor exists so that
// representation-specific engines can index the rule natively — Delta-net*
// converts it to intervals, and the prefix trie indexes its primary
// prefix. A nil descriptor means "opaque match": engines fall back to
// conservative handling (wildcard indexing).
type MatchDesc []FieldMatch

// PrimaryPrefix returns the descriptor's constraint on the named field as
// a (value, length) prefix if it has one, for trie indexing. Rules without
// a prefix constraint on the field report ok=false and are indexed at the
// trie root.
func (d MatchDesc) PrimaryPrefix(field string) (value uint64, plen int, ok bool) {
	for _, f := range d {
		if f.Field == field && f.Kind == MatchPrefix {
			return f.Value, f.Len, true
		}
	}
	return 0, 0, false
}

// SubspaceRange maps the descriptor's primary prefix on the partitioned
// field to the inclusive range of subspaces it can intersect, when the
// header space is split into `subspaces` equal parts by the top bits of
// that field (subspace i is the prefix i/log2(subspaces)). It is the one
// copy of the routing arithmetic: the shard coordinator prunes updates
// between processes with it and the subspace workers inside one process
// skip compiling updates that cannot reach them.
//
// ok=false means "unknown — deliver everywhere": no prefix constraint on
// the field (a ternary match, or a descriptor on other fields only), a
// prefix that is not a valid one for the field (bad length, value bits
// above the field width — compiling decides what that means, not the
// router), or a subspace count that is not a power of two fitting the
// field. Over-delivery is always safe: a worker intersects each match
// with its universe and drops the empty ones itself.
func SubspaceRange(d MatchDesc, field string, fieldBits, subspaces int) (lo, hi int, ok bool) {
	b := bits.TrailingZeros(uint(subspaces))
	if subspaces <= 0 || fieldBits <= 0 || fieldBits > 64 || field == "" || subspaces != 1<<uint(b) || b > fieldBits {
		return 0, 0, false
	}
	value, plen, has := d.PrimaryPrefix(field)
	if !has || plen < 0 || plen > fieldBits || (fieldBits < 64 && value>>uint(fieldBits) != 0) {
		return 0, 0, false
	}
	if plen >= b {
		s := int(value >> uint(fieldBits-b))
		return s, s, true
	}
	// Short prefix: it spans a 2^(b-plen)-wide aligned block of subspaces.
	lo = int(value>>uint(fieldBits-plen)) << uint(b-plen)
	return lo, lo + 1<<uint(b-plen) - 1, true
}
