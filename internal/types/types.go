// Package types implements the SELF compiler's type system from §3.1 of
// Chambers & Ungar (PLDI'90): a type is a set of run-time values.
//
// The kinds, mirroring the paper's chart:
//
//	value type       singleton set; a compile-time constant
//	integer subrange set of sequential integers [lo..hi]; integer value
//	                 types and the integer class type are its extremes
//	class type       all values sharing one map (hidden class)
//	unknown type     all values; no information
//	union type       set union (results of primitives)
//	difference type  set difference (failed type tests)
//	merge type       like a union, but records the identities of the
//	                 constituent types and the control-flow merge that
//	                 created it, enabling extended message splitting
//
// Block types are value types for block literals whose lexical scope
// the compiler still knows; they are what makes user-defined control
// structures inlinable.
package types

import (
	"fmt"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
)

// Type is a compile-time description of the set of values a variable
// may hold. A nil Type denotes the empty set (dead/unreachable).
type Type interface {
	String() string
	isType()
}

// Unknown is the set of all values.
type Unknown struct{}

// Val is a singleton set holding one non-integer constant (integers
// normalize to one-point Ranges). M is the constant's map.
type Val struct {
	V obj.Value
	M *obj.Map
}

// Range is an integer subrange [Lo..Hi] (inclusive). The full
// small-integer range doubles as the integer class type.
type Range struct {
	Lo, Hi int64
}

// Class is the set of all values with map M (non-integer maps; integer
// class types normalize to the full Range).
type Class struct {
	M *obj.Map
}

// Union is a set union of types, produced by primitive result tables.
type Union struct {
	Elems []Type
}

// Diff is the set difference Base minus Sub, produced on the failure
// branch of run-time type tests.
type Diff struct {
	Base, Sub Type
}

// Merge records a control-flow merge of distinct types. Unlike Union
// it keeps the constituents' identities (e.g. merging int with unknown
// yields {int, ?}, not ?), and remembers the merge point that created
// it so splitting knows how far to copy.
type Merge struct {
	Elems  []Type
	Origin int // id of the merge node (0 if unknown)
}

// Blk is the compile-time type of a block literal whose enclosing
// scope is still known to the compiler; sends of value/value: to it
// can be inlined. Scope is an opaque compiler-owned token; blocks from
// different inlining contexts never compare equal.
type Blk struct {
	B     *ast.Block
	Scope any
	M     *obj.Map // the world's block map
}

func (Unknown) isType() {}
func (Val) isType()     {}
func (Range) isType()   {}
func (Class) isType()   {}
func (Union) isType()   {}
func (Diff) isType()    {}
func (Merge) isType()   {}
func (Blk) isType()     {}

// FullRange is the integer class type.
func FullRange() Range { return Range{Lo: obj.MinSmallInt, Hi: obj.MaxSmallInt} }

// IsFull reports whether r covers the whole small-integer class.
func (r Range) IsFull() bool { return r.Lo <= obj.MinSmallInt && r.Hi >= obj.MaxSmallInt }

func (Unknown) String() string { return "?" }

func (v Val) String() string {
	switch v.V.K() {
	case obj.KNil:
		return "nil"
	case obj.KStr:
		return fmt.Sprintf("'%s'", v.V.S())
	case obj.KObj:
		if v.M != nil {
			switch v.M.Name {
			case "true", "false":
				return v.M.Name
			}
		}
		return "<" + v.V.String() + ">"
	default:
		return v.V.String()
	}
}

func (r Range) String() string {
	if r.IsFull() {
		return "int"
	}
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("[%d..%d]", r.Lo, r.Hi)
}

func (c Class) String() string { return c.M.Name }

func (u Union) String() string { return "union" + elemsString(u.Elems) }

func (d Diff) String() string { return fmt.Sprintf("(%s - %s)", d.Base, d.Sub) }

func (m Merge) String() string { return elemsString(m.Elems) }

func (b Blk) String() string { return "[block]" }

func elemsString(elems []Type) string {
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// NewVal builds the value type for a runtime constant; integer
// constants become one-point ranges, per the paper's treatment of
// integer value types as extreme subranges.
func NewVal(v obj.Value, m *obj.Map) Type {
	if v.K() == obj.KInt {
		return Range{Lo: v.I(), Hi: v.I()}
	}
	return Val{V: v, M: m}
}

// NewClass builds the class type for a map; the integer map becomes
// the full range.
func NewClass(m *obj.Map, intMap *obj.Map) Type {
	if m == intMap {
		return FullRange()
	}
	return Class{M: m}
}

// Equal reports structural equality of two types.
func Equal(a, b Type) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Unknown:
		_, ok := b.(Unknown)
		return ok
	case Val:
		y, ok := b.(Val)
		return ok && x.V.Eq(y.V)
	case Range:
		y, ok := b.(Range)
		return ok && x == y
	case Class:
		y, ok := b.(Class)
		return ok && x.M == y.M
	case Blk:
		y, ok := b.(Blk)
		return ok && x.B == y.B && x.Scope == y.Scope
	case Diff:
		y, ok := b.(Diff)
		return ok && Equal(x.Base, y.Base) && Equal(x.Sub, y.Sub)
	case Union:
		y, ok := b.(Union)
		return ok && equalElems(x.Elems, y.Elems)
	case Merge:
		y, ok := b.(Merge)
		return ok && equalElems(x.Elems, y.Elems)
	}
	return false
}

func equalElems(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Constant returns the compile-time constant a type denotes, if any.
func Constant(t Type) (obj.Value, bool) {
	switch x := t.(type) {
	case Val:
		return x.V, true
	case Range:
		if x.Lo == x.Hi {
			return obj.Int(x.Lo), true
		}
	case Merge:
		if len(x.Elems) == 1 {
			return Constant(x.Elems[0])
		}
	}
	return obj.Nil(), false
}

// RangeOf returns the integer subrange covering every value of t, when
// t is known to contain only small integers.
func RangeOf(t Type) (Range, bool) {
	switch x := t.(type) {
	case Range:
		return x, true
	case Diff:
		return RangeOf(x.Base)
	case Union:
		return rangeOfElems(x.Elems)
	case Merge:
		return rangeOfElems(x.Elems)
	}
	return Range{}, false
}

func rangeOfElems(elems []Type) (Range, bool) {
	var out Range
	for i, e := range elems {
		r, ok := RangeOf(e)
		if !ok {
			return Range{}, false
		}
		if i == 0 {
			out = r
			continue
		}
		out.Lo = min(out.Lo, r.Lo)
		out.Hi = max(out.Hi, r.Hi)
	}
	return out, len(elems) > 0
}

// MapOf returns the single map every value of t must have, or nil when
// the type spans several maps or is unknown. intMap is the world's
// small-integer map.
func MapOf(t Type, intMap *obj.Map) *obj.Map {
	switch x := t.(type) {
	case Val:
		return x.M
	case Range:
		return intMap
	case Class:
		return x.M
	case Blk:
		return x.M
	case Diff:
		return MapOf(x.Base, intMap)
	case Union:
		return mapOfElems(x.Elems, intMap)
	case Merge:
		return mapOfElems(x.Elems, intMap)
	}
	return nil
}

func mapOfElems(elems []Type, intMap *obj.Map) *obj.Map {
	var m *obj.Map
	for _, e := range elems {
		em := MapOf(e, intMap)
		if em == nil {
			return nil
		}
		if m == nil {
			m = em
		} else if m != em {
			return nil
		}
	}
	return m
}

// HasClassInfo reports whether t carries any class (map) information —
// used by the §5.2 compatibility rule ("the type at the loop head does
// not sacrifice class type information present in the loop tail").
func HasClassInfo(t Type, intMap *obj.Map) bool {
	switch x := t.(type) {
	case Unknown:
		return false
	case Diff:
		return HasClassInfo(x.Base, intMap)
	case Union:
		for _, e := range x.Elems {
			if HasClassInfo(e, intMap) {
				return true
			}
		}
		return false
	case Merge:
		for _, e := range x.Elems {
			if HasClassInfo(e, intMap) {
				return true
			}
		}
		return false
	default:
		return MapOf(t, intMap) != nil
	}
}

// Contains reports whether every value of b is certainly a value of a
// (b ⊆ a). It is conservative: false when unsure.
func Contains(a, b Type, intMap *obj.Map) bool {
	if b == nil {
		return true // empty set
	}
	if a == nil {
		return false
	}
	if Equal(a, b) {
		return true
	}
	if _, ok := a.(Unknown); ok {
		return true
	}
	// Decompose b first: every element must fit in a.
	switch y := b.(type) {
	case Union:
		for _, e := range y.Elems {
			if !Contains(a, e, intMap) {
				return false
			}
		}
		return true
	case Merge:
		for _, e := range y.Elems {
			if !Contains(a, e, intMap) {
				return false
			}
		}
		return true
	case Diff:
		return Contains(a, y.Base, intMap)
	}
	switch x := a.(type) {
	case Val:
		if v, ok := Constant(b); ok {
			return x.V.Eq(v)
		}
		return false
	case Range:
		if r, ok := RangeOf(b); ok {
			return x.Lo <= r.Lo && r.Hi <= x.Hi
		}
		return false
	case Class:
		return MapOf(b, intMap) == x.M
	case Blk:
		return false // only equality (handled above)
	case Union:
		for _, e := range x.Elems {
			if Contains(e, b, intMap) {
				return true
			}
		}
		return false
	case Merge:
		for _, e := range x.Elems {
			if Contains(e, b, intMap) {
				return true
			}
		}
		return false
	case Diff:
		return Contains(x.Base, b, intMap) && Disjoint(x.Sub, b, intMap)
	}
	return false
}

// Disjoint reports whether a and b certainly share no values.
// Conservative: false when unsure.
func Disjoint(a, b Type, intMap *obj.Map) bool {
	if a == nil || b == nil {
		return true
	}
	if _, ok := a.(Unknown); ok {
		return false
	}
	if _, ok := b.(Unknown); ok {
		return false
	}
	switch x := a.(type) {
	case Union:
		return allDisjoint(x.Elems, b, intMap)
	case Merge:
		return allDisjoint(x.Elems, b, intMap)
	case Diff:
		return Disjoint(x.Base, b, intMap)
	}
	switch y := b.(type) {
	case Union:
		return allDisjoint(y.Elems, a, intMap)
	case Merge:
		return allDisjoint(y.Elems, a, intMap)
	case Diff:
		return Disjoint(y.Base, a, intMap)
	}
	ra, aInt := RangeOf(a)
	rb, bInt := RangeOf(b)
	if aInt && bInt {
		return ra.Hi < rb.Lo || rb.Hi < ra.Lo
	}
	ma := MapOf(a, intMap)
	mb := MapOf(b, intMap)
	if ma != nil && mb != nil && ma != mb {
		return true
	}
	// Same map: distinct value types of the same map are disjoint.
	va, aOK := Constant(a)
	vb, bOK := Constant(b)
	if aOK && bOK {
		return !va.Eq(vb)
	}
	return false
}

func allDisjoint(elems []Type, b Type, intMap *obj.Map) bool {
	for _, e := range elems {
		if !Disjoint(e, b, intMap) {
			return false
		}
	}
	return true
}

// UnionOf forms the canonical set union of two types (used for
// primitive result types).
func UnionOf(a, b Type, intMap *obj.Map) Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if Contains(a, b, intMap) {
		return a
	}
	if Contains(b, a, intMap) {
		return b
	}
	// Adjacent/overlapping ranges coalesce.
	if ra, ok := RangeOf(a); ok {
		if rb, ok2 := RangeOf(b); ok2 {
			if ra.Hi+1 >= rb.Lo && rb.Hi+1 >= ra.Lo {
				return Range{Lo: min(ra.Lo, rb.Lo), Hi: max(ra.Hi, rb.Hi)}
			}
		}
	}
	return Union{Elems: flatten(a, b, nil)}
}

// MergeOf merges the types arriving at a control-flow merge node.
// Identical types stay themselves; different types form a merge type
// recording each constituent (§4).
func MergeOf(a, b Type, origin int, intMap *obj.Map) Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if Equal(a, b) {
		return a
	}
	elems := flatten(a, b, nil)
	if len(elems) == 1 {
		return elems[0]
	}
	return Merge{Elems: elems, Origin: origin}
}

// flatten appends the constituents of a and b (expanding unions and
// merges) without duplicates.
func flatten(a, b Type, into []Type) []Type {
	add := func(t Type) {
		for _, e := range into {
			if Equal(e, t) {
				return
			}
		}
		into = append(into, t)
	}
	expand := func(t Type) {
		switch x := t.(type) {
		case Union:
			for _, e := range x.Elems {
				add(e)
			}
		case Merge:
			for _, e := range x.Elems {
				add(e)
			}
		default:
			add(t)
		}
	}
	expand(a)
	expand(b)
	return into
}

// Constituents returns the distinct alternatives a type offers for
// splitting: merge/union elements, or the type itself.
func Constituents(t Type) []Type {
	switch x := t.(type) {
	case Merge:
		return x.Elems
	case Union:
		return x.Elems
	}
	return []Type{t}
}

// Intersect refines t by a successful run-time type test against
// "test" (a class type or range). Returns nil when the success branch
// is impossible.
func Intersect(t, test Type, intMap *obj.Map) Type {
	if t == nil {
		return nil
	}
	if Contains(test, t, intMap) {
		return t // the test cannot fail; keep the more precise type
	}
	switch x := t.(type) {
	case Union:
		return intersectElems(x.Elems, test, intMap)
	case Merge:
		return intersectElems(x.Elems, test, intMap)
	case Diff:
		in := Intersect(x.Base, test, intMap)
		if in == nil || Contains(x.Sub, in, intMap) {
			return nil // everything passing the test was subtracted
		}
		if Disjoint(in, x.Sub, intMap) {
			return in
		}
		return Diff{Base: in, Sub: x.Sub}
	}
	rt, tInt := RangeOf(t)
	rs, sInt := RangeOf(test)
	if tInt && sInt {
		lo, hi := max(rt.Lo, rs.Lo), min(rt.Hi, rs.Hi)
		if lo > hi {
			return nil
		}
		return Range{Lo: lo, Hi: hi}
	}
	if Disjoint(t, test, intMap) {
		return nil
	}
	if _, ok := t.(Unknown); ok {
		return test
	}
	mt := MapOf(t, intMap)
	ms := MapOf(test, intMap)
	if mt != nil && ms != nil && mt != ms {
		return nil
	}
	return test
}

func intersectElems(elems []Type, test Type, intMap *obj.Map) Type {
	var out Type
	for _, e := range elems {
		r := Intersect(e, test, intMap)
		out = UnionOf(out, r, intMap)
	}
	return out
}

// Subtract refines t on the failure branch of a type test against
// "test" (§3.2.1): values of t known to be in test are removed.
// Returns nil when the failure branch is impossible.
func Subtract(t, test Type, intMap *obj.Map) Type {
	if t == nil {
		return nil
	}
	if Contains(test, t, intMap) {
		return nil // every value passes the test; failure is dead
	}
	if Disjoint(t, test, intMap) {
		return t
	}
	switch x := t.(type) {
	case Union:
		return subtractElems(x.Elems, test, intMap)
	case Merge:
		return subtractElems(x.Elems, test, intMap)
	case Diff:
		return Diff{Base: x.Base, Sub: UnionOf(x.Sub, test, intMap)}
	}
	// Range minus overlapping range: representable when the cut is at
	// an end.
	if rt, ok := RangeOf(t); ok {
		if rs, ok2 := RangeOf(test); ok2 {
			switch {
			case rs.Lo <= rt.Lo && rs.Hi < rt.Hi:
				return Range{Lo: rs.Hi + 1, Hi: rt.Hi}
			case rs.Hi >= rt.Hi && rs.Lo > rt.Lo:
				return Range{Lo: rt.Lo, Hi: rs.Lo - 1}
			}
		}
	}
	return Diff{Base: t, Sub: test}
}

func subtractElems(elems []Type, test Type, intMap *obj.Map) Type {
	var out Type
	for _, e := range elems {
		r := Subtract(e, test, intMap)
		out = UnionOf(out, r, intMap)
	}
	return out
}

// LoopGeneralize folds a loop-tail type into a loop-head type using the
// §5.1 rule: differing value or subrange types within the same class
// generalize straight to the class type, so the analysis reaches its
// fix-point in one extra iteration; otherwise a merge type forms.
func LoopGeneralize(head, tail Type, origin int, intMap *obj.Map) Type {
	if head == nil {
		return tail
	}
	if tail == nil {
		return head
	}
	if Equal(head, tail) {
		return head
	}
	if Contains(head, tail, intMap) && !widensClass(head, tail, intMap) {
		return head
	}
	mh := MapOf(head, intMap)
	mt := MapOf(tail, intMap)
	if mh != nil && mh == mt {
		// Same class: generalize values/subranges toward the class
		// type. For integers we use directed widening — only a bound
		// the tail actually moved escapes to the class bound — which
		// converges just as fast as the paper's generalize-to-class
		// rule but preserves stationary bounds (so a loop counter
		// seeded at 0 keeps its non-negativity and the lower array
		// bounds check dies).
		if mh == intMap {
			rh, okH := RangeOf(head)
			rt, okT := RangeOf(tail)
			if okH && okT {
				lo, hi := rh.Lo, rh.Hi
				if rt.Lo < lo {
					lo = obj.MinSmallInt
				}
				if rt.Hi > hi {
					hi = obj.MaxSmallInt
				}
				return Range{Lo: lo, Hi: hi}
			}
			return FullRange()
		}
		return Class{M: mh}
	}
	// Different classes, or one side lacks class info: form a merge
	// type that keeps each class's constituent distinct (§4: int
	// merged with unknown is {int, ?}, NOT ?). Constituents are
	// generalized to their class first so the fix-point arrives
	// quickly; constituents carrying no class information collapse
	// into a single unknown — there is nothing to split them on.
	var elems []Type
	addElem := func(t Type) {
		for _, e := range elems {
			if Equal(e, t) {
				return
			}
		}
		elems = append(elems, t)
	}
	hasUnknown := false
	for _, e := range append(Constituents(head), Constituents(tail)...) {
		e = generalizeToClass(e, intMap)
		if !HasClassInfo(e, intMap) {
			hasUnknown = true
			continue
		}
		addElem(e)
	}
	if hasUnknown {
		addElem(Unknown{})
	}
	if len(elems) == 1 {
		return elems[0]
	}
	return Merge{Elems: elems, Origin: origin}
}

// widensClass reports whether using `head` for a value known to be
// `tail` would sacrifice class information (head lacks a map that tail
// has).
func widensClass(head, tail Type, intMap *obj.Map) bool {
	return MapOf(head, intMap) == nil && !containsClassOf(head, tail, intMap) && HasClassInfo(tail, intMap)
}

// containsClassOf reports whether head (possibly a merge) has a
// constituent carrying tail's class.
func containsClassOf(head, tail Type, intMap *obj.Map) bool {
	mt := MapOf(tail, intMap)
	if mt == nil {
		return false
	}
	for _, e := range Constituents(head) {
		if MapOf(e, intMap) == mt {
			return true
		}
	}
	return false
}

func generalizeToClass(t Type, intMap *obj.Map) Type {
	m := MapOf(t, intMap)
	switch {
	case m == nil:
		return t
	case m == intMap:
		return FullRange()
	default:
		// Block literals also generalize to the block class here: a
		// merged type cannot inline the block anyway, and keeping the
		// literal would let an unmaterialized closure escape.
		return Class{M: m}
	}
}

// Compatible implements the §5.2 loop head/tail compatibility rule: the
// head type must contain the tail type AND must not sacrifice class
// information present at the tail (so unknown at the head is NOT
// compatible with a class type at the tail).
func Compatible(head, tail Type, intMap *obj.Map) bool {
	if tail == nil {
		return true
	}
	if head == nil {
		return false
	}
	if Equal(head, tail) {
		return true
	}
	if m, ok := tail.(Merge); ok {
		for _, e := range m.Elems {
			if !Compatible(head, e, intMap) {
				return false
			}
		}
		return true
	}
	if _, ok := head.(Unknown); ok {
		return !HasClassInfo(tail, intMap)
	}
	if m, ok := head.(Merge); ok {
		for _, e := range m.Elems {
			if Compatible(e, tail, intMap) {
				return true
			}
		}
		return false
	}
	return Contains(head, tail, intMap)
}
