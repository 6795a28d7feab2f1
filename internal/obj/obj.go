// Package obj implements the SELF-style prototype object model:
// objects are bags of slots, clones share *maps* (the user-transparent
// hidden classes of Chambers & Ungar §3.1, footnote 2), and method
// lookup walks constant parent slots.
//
// Non-object values — small integers, strings, blocks, nil, true and
// false — also have maps, so every value has a well-defined "class"
// that customization and class types can key on.
package obj

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"selfgo/internal/ast"
)

// Small-integer bounds. The SELF system of the paper ran on 32-bit
// SPARCs with 30-bit tagged small integers; we keep the same bounds so
// overflow checks and range analysis behave exactly as described.
const (
	MinSmallInt = -1 << 29
	MaxSmallInt = 1<<29 - 1
)

// Kind discriminates the immediate value representations.
type Kind uint8

// Value kinds. The numeric values are the low-bits tag of the packed
// Value representation; KNil must stay zero so the zero Value is nil.
const (
	KNil Kind = iota
	KInt
	KStr
	KObj
	KBlock
)

func (k Kind) String() string {
	switch k {
	case KNil:
		return "nil"
	case KInt:
		return "int"
	case KStr:
		return "string"
	case KObj:
		return "object"
	case KBlock:
		return "block"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kindBits is the width of the kind tag packed into Value.bits.
const kindBits = 3

// Value is a runtime value in a compact tagged representation: the
// kind tag and the small-integer payload are packed into one word, and
// the object, block and interned-string pointers share the second.
// At 16 bytes (down from the five-field 48-byte struct it replaced)
// every register file, frame, field array and vector is 3x smaller.
//
// The zero Value is nil. Integer payloads are stored shifted left by
// the tag width, so |i| beyond 2^60 wraps; all interpreter backends
// share the constructors, so unchecked-config overflow behaves
// identically everywhere, and checked paths fault at the 30-bit
// MaxSmallInt long before the representation limit.
type Value struct {
	bits uint64
	p    unsafe.Pointer
}

// intern is the global string-intern table: every KStr Value points at
// the canonical *string for its contents, so Eq can compare pointers
// first and value payloads never carry a 16-byte string header.
//
// The table is bounded: guests mint strings (literals in /expr
// requests, _StrCat results), and an unbounded table would be a host
// memory-growth vector the bytes budget cannot see. When the entry
// count reaches internMaxEntries the current generation is dropped and
// a fresh map started — already-issued pointers stay valid (their
// Values hold the *string alive), and Eq's content fallback keeps
// equality correct between strings interned in different generations;
// only the pointer-compare fast path is lost across the boundary.
var (
	internMu  sync.RWMutex
	internTab = make(map[string]*string)
)

// internMaxEntries caps one intern generation. 64K distinct strings is
// far beyond any world load plus steady-state serving traffic, and at
// that point one generation retains at most a few MB of table.
const internMaxEntries = 1 << 16

// Intern returns the canonical pointer for s (canonical within the
// current intern generation; see the table comment).
func Intern(s string) *string {
	internMu.RLock()
	p := internTab[s]
	internMu.RUnlock()
	if p != nil {
		return p
	}
	internMu.Lock()
	defer internMu.Unlock()
	if p = internTab[s]; p != nil {
		return p
	}
	if len(internTab) >= internMaxEntries {
		internTab = make(map[string]*string)
	}
	p = &s
	internTab[s] = p
	return p
}

// internLen reports the current generation's entry count (tests).
func internLen() int {
	internMu.RLock()
	defer internMu.RUnlock()
	return len(internTab)
}

// Convenience constructors.
func Nil() Value        { return Value{} }
func Int(i int64) Value { return Value{bits: uint64(i)<<kindBits | uint64(KInt)} }
func Str(s string) Value {
	return Value{bits: uint64(KStr), p: unsafe.Pointer(Intern(s))}
}
func Obj(o *Object) Value  { return Value{bits: uint64(KObj), p: unsafe.Pointer(o)} }
func Blk(c *Closure) Value { return Value{bits: uint64(KBlock), p: unsafe.Pointer(c)} }

// K returns the value's kind.
func (v Value) K() Kind { return Kind(v.bits & (1<<kindBits - 1)) }

// I returns the small-integer payload (meaningful for KInt; zero-ish
// garbage otherwise, matching the old struct's zero field).
func (v Value) I() int64 { return int64(v.bits) >> kindBits }

// S returns the string payload, or "" for non-strings.
func (v Value) S() string {
	if Kind(v.bits&(1<<kindBits-1)) != KStr || v.p == nil {
		return ""
	}
	return *(*string)(v.p)
}

// Obj returns the object payload, or nil for non-objects. The kind
// guard is load-bearing: the pointer word is shared with KBlock and
// KStr, and callers rely on `v.Obj() == nil` meaning "not an object".
func (v Value) Obj() *Object {
	if Kind(v.bits&(1<<kindBits-1)) != KObj {
		return nil
	}
	return (*Object)(v.p)
}

// Blk returns the closure payload, or nil for non-blocks.
func (v Value) Blk() *Closure {
	if Kind(v.bits&(1<<kindBits-1)) != KBlock {
		return nil
	}
	return (*Closure)(v.p)
}

// IsNil reports whether v is the nil object.
func (v Value) IsNil() bool { return v.bits == 0 }

// Eq is identity equality: equal small integers, identical strings,
// the same object. Strings are interned, so the pointer comparison
// almost always decides; the content fallback keeps Values built from
// distinct intern generations (none today) honest.
func (v Value) Eq(w Value) bool {
	if v.bits != w.bits {
		return false
	}
	if v.p == w.p {
		return true
	}
	return v.K() == KStr && v.S() == w.S()
}

// String renders the value for diagnostics and the _Print primitive.
func (v Value) String() string {
	switch v.K() {
	case KNil:
		return "nil"
	case KInt:
		return strconv.FormatInt(v.I(), 10)
	case KStr:
		return v.S()
	case KObj:
		return v.Obj().String()
	case KBlock:
		return "[block]"
	}
	return "<?>"
}

// ValueBytes is the modelled size of one Value slot, used by the bytes
// axis of Budget accounting (per-element charges on vector allocation
// and cloning).
const ValueBytes = int64(unsafe.Sizeof(Value{}))

// SlotKind classifies map slots.
type SlotKind uint8

// Slot kinds. AssignSlot is the auto-generated "x:" setter paired with
// each data slot.
const (
	ConstSlot SlotKind = iota
	DataSlot
	AssignSlot
	ParentSlot
	MethodSlot
)

// Slot describes one slot in a map.
type Slot struct {
	Name  string
	Kind  SlotKind
	Index int     // DataSlot/AssignSlot: index into Object.Fields
	Value Value   // ConstSlot/ParentSlot: the constant value
	Meth  *Method // MethodSlot
}

// Method is the code object held in a method slot.
type Method struct {
	Sel    string
	Ast    *ast.Method
	Holder *Map // the map of the object the method was defined in
}

func (m *Method) String() string {
	if m.Holder != nil {
		return m.Holder.Name + ">>" + m.Sel
	}
	return m.Sel
}

// Map is the hidden class shared by all clones of one prototype.
type Map struct {
	ID     int
	Name   string
	Slots  []Slot
	byName map[string]int

	// NFields is the number of assignable data slots (the length of
	// each instance's Fields).
	NFields int

	// Indexable marks vector maps: instances carry Elems.
	Indexable bool

	// Tags are the per-field typed-shape tags (one per assignable data
	// slot, indexed like Object.Fields): nil = no store observed yet,
	// PolyShape = stores of more than one map observed, any other map =
	// every store so far held a value of that map. Maintained by
	// World.NoteFieldStore on every field store while ShapeTracking is
	// on; read by the BBV materializer, which turns a monomorphic tag
	// into a type fact a slot load contributes for free. Entries are
	// atomics because forked worker VMs store into clones sharing one
	// map concurrently. The slice itself only grows during (single-
	// threaded) source loading, in step with NFields.
	Tags []atomic.Pointer[Map]
}

// PolyShape is the sentinel tag for a field that has held values of
// more than one map: no type fact can be drawn from loading it.
var PolyShape = &Map{Name: "<poly-shape>"}

func (m *Map) String() string { return m.Name }

// SlotNamed returns the local slot with the given name, or nil.
func (m *Map) SlotNamed(name string) *Slot {
	if i, ok := m.byName[name]; ok {
		return &m.Slots[i]
	}
	return nil
}

// Object is a heap object: a map plus assignable-slot storage, plus
// element storage for indexable objects (vectors).
type Object struct {
	Map    *Map
	Fields []Value
	Elems  []Value // only for indexable maps

	// Ep is the arena epoch the object was allocated in: 0 for
	// permanent (Go-heap, load-time) objects, otherwise the owning
	// Arena's epoch at allocation. The VM's store barrier compares it
	// against the current epoch to detect values escaping their
	// request lifetime (see Arena).
	Ep uint32
}

func (o *Object) String() string {
	if o == nil {
		return "<nil object>"
	}
	if o.Map.Indexable {
		return fmt.Sprintf("a %s(%d)", o.Map.Name, len(o.Elems))
	}
	return "a " + strings.TrimPrefix(o.Map.Name, "a ")
}

// Clone returns a shallow copy sharing the receiver's map, allocated
// on the permanent Go heap (epoch 0). The VM clones through its Arena
// instead; this stays for load-time and test use.
func (o *Object) Clone() *Object {
	c := &Object{Map: o.Map}
	if len(o.Fields) > 0 {
		c.Fields = make([]Value, len(o.Fields))
		copy(c.Fields, o.Fields)
	}
	if o.Map.Indexable {
		c.Elems = make([]Value, len(o.Elems))
		copy(c.Elems, o.Elems)
	}
	return c
}

// Closure is a runtime block: code plus the captured home context.
// Cells are the captured variables, one per capture of the block
// literal in the compiler's capture order (names sorted, self
// included); block code reads and writes them by index. A cell aliases
// the enclosing activation's slot or closure cell, or holds a copy of a
// parameter. Env belongs to the VM and is opaque here: the home
// activation for non-local return and the capture list naming Cells.
type Closure struct {
	Ast   *ast.Block
	Map   *Map
	Env   any
	Cells []*Value
}

// LookupResult is the outcome of message lookup. Holder is the object
// whose storage an inherited data/assignment slot lives in (nil when
// the slot is the receiver's own): in SELF, a data slot found through a
// parent is the parent's storage, shared by every inheritor.
type LookupResult struct {
	Slot   *Slot
	Map    *Map // map in which the slot was found
	Holder *Object
}

// Lookup performs SELF message lookup starting at map m: the receiver's
// own slots first, then its parents depth-first in slot order. The
// first match wins; cycles are tolerated. ok is false when the message
// is not understood. Lookup allocates nothing unless the search visits
// more maps than its on-stack visited set holds.
func Lookup(m *Map, sel string) (r LookupResult, ok bool) {
	var seen visited
	return lookup(m, sel, &seen)
}

func lookup(m *Map, sel string, seen *visited) (LookupResult, bool) {
	if m == nil || !seen.add(m) {
		return LookupResult{}, false
	}
	if s := m.SlotNamed(sel); s != nil {
		return LookupResult{Slot: s, Map: m}, true
	}
	for i := range m.Slots {
		if m.Slots[i].Kind != ParentSlot {
			continue
		}
		pv := m.Slots[i].Value
		if pv.K() != KObj {
			continue
		}
		if r, ok := lookup(pv.Obj().Map, sel, seen); ok {
			if r.Holder == nil {
				r.Holder = pv.Obj()
			}
			return r, true
		}
	}
	return LookupResult{}, false
}

// visited is the set of maps a lookup has entered. It lives on the
// lookup's stack, not as a mark on Map, because forked VMs look up
// through shared maps concurrently; chains longer than the array spill
// into a map.
type visited struct {
	n     int
	near  [16]*Map
	spill map[*Map]bool
}

// add records m and reports whether it was new.
func (v *visited) add(m *Map) bool {
	for _, x := range v.near[:v.n] {
		if x == m {
			return false
		}
	}
	if v.n < len(v.near) {
		v.near[v.n] = m
		v.n++
		return true
	}
	if v.spill[m] {
		return false
	}
	if v.spill == nil {
		v.spill = make(map[*Map]bool)
	}
	v.spill[m] = true
	return true
}
