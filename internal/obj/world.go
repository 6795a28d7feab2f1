package obj

import (
	"fmt"
	"sync"
	"sync/atomic"

	"selfgo/internal/ast"
)

// World is an object universe: the lobby (global namespace), the
// built-in maps for immediate values, and the well-known singletons.
type World struct {
	// mapMu guards map creation: run-time object literals mint maps
	// from concurrent compiles (the single-flight cache runs compiles
	// on worker goroutines), so the ID counter needs a lock even
	// though source loading itself is single-threaded.
	mapMu     sync.Mutex
	nextMapID int

	Lobby *Object

	NilMap   *Map
	IntMap   *Map
	StrMap   *Map
	BlockMap *Map
	VecMap   *Map

	TrueObj  *Object
	FalseObj *Object

	// VectorProto is the clonable empty vector bound to the lobby slot
	// "vector".
	VectorProto *Object

	// OnMapChange, when non-nil, is invoked whenever a map's shape
	// changes after creation: a slot added or replaced by a later Load,
	// or a builtin parent patched by Finalize. The shared code cache
	// registers here so customizations compiled against the old shape
	// are invalidated. World mutation (and hence this hook) is
	// single-threaded: sources are loaded before worker VMs start —
	// with one exception: a typed-shape widening (see NoteFieldStore)
	// fires the hook from whichever VM performed the widening store.
	OnMapChange func(*Map)

	// ShapeTracking turns on per-field typed-shape tag maintenance
	// (Map.Tags). Systems running the BBV strategy set it before any
	// source loads; the split strategy leaves it off, so the store fast
	// path pays nothing.
	ShapeTracking bool

	// ShapeGen counts typed-shape widenings (any field tag going
	// polymorphic, world-wide). BBV versions that consumed a shape fact
	// record the generation they read it at; a moved generation means
	// the fact may no longer hold and the version re-checks at run time
	// and re-materializes on next entry. Coarse by design: widenings
	// are rare (at most one per field, ever).
	ShapeGen atomic.Uint64
}

// NewWorld creates a world with the built-in maps and singletons but an
// otherwise empty lobby. Callers normally load the prelude next.
func NewWorld() *World {
	w := &World{}
	w.NilMap = w.newMap("nil")
	w.IntMap = w.newMap("smallInt")
	w.StrMap = w.newMap("string")
	w.BlockMap = w.newMap("block")
	w.VecMap = w.newMap("vector")
	w.VecMap.Indexable = true

	// Builtin maps get one patchable parent slot so the prelude can
	// attach traits objects (see Finalize).
	for _, m := range []*Map{w.NilMap, w.IntMap, w.StrMap, w.BlockMap, w.VecMap} {
		w.addSlot(m, Slot{Name: "parent", Kind: ParentSlot, Value: Nil()})
	}

	trueMap := w.newMap("true")
	falseMap := w.newMap("false")
	w.addSlot(trueMap, Slot{Name: "parent", Kind: ParentSlot, Value: Nil()})
	w.addSlot(falseMap, Slot{Name: "parent", Kind: ParentSlot, Value: Nil()})
	w.TrueObj = &Object{Map: trueMap}
	w.FalseObj = &Object{Map: falseMap}

	lobbyMap := w.newMap("lobby")
	w.Lobby = &Object{Map: lobbyMap}
	w.VectorProto = &Object{Map: w.VecMap}

	// Well-known constants, visible from any object that inherits from
	// the lobby.
	w.DefineConst("lobby", Obj(w.Lobby))
	w.DefineConst("nil", Nil())
	w.DefineConst("true", Obj(w.TrueObj))
	w.DefineConst("false", Obj(w.FalseObj))
	w.DefineConst("vector", Obj(w.VectorProto))
	return w
}

func (w *World) newMap(name string) *Map {
	w.mapMu.Lock()
	defer w.mapMu.Unlock()
	w.nextMapID++
	return &Map{ID: w.nextMapID, Name: name, byName: map[string]int{}}
}

// addSlot appends a slot to a map, assigning field indices to data
// slots and keeping the name index current.
func (w *World) addSlot(m *Map, s Slot) *Slot {
	if s.Kind == DataSlot {
		s.Index = m.NFields
		m.NFields++
		if w.ShapeTracking {
			for len(m.Tags) < m.NFields {
				m.Tags = append(m.Tags, atomic.Pointer[Map]{})
			}
		}
	}
	if w.OnMapChange != nil {
		defer w.OnMapChange(m)
	}
	if i, ok := m.byName[s.Name]; ok {
		m.Slots[i] = s // redefinition replaces
		return &m.Slots[i]
	}
	m.byName[s.Name] = len(m.Slots)
	m.Slots = append(m.Slots, s)
	return &m.Slots[len(m.Slots)-1]
}

// DefineConst installs a constant slot in the lobby.
func (w *World) DefineConst(name string, v Value) {
	w.addSlot(w.Lobby.Map, Slot{Name: name, Kind: ConstSlot, Value: v})
}

// NoteFieldStore maintains m's typed-shape tag for field idx across a
// store of v: the first store records v's map, matching stores are
// free, and the first mismatching store widens the tag to PolyShape —
// bumping ShapeGen (before the caller lands the value, so any load
// observing the new value observes the moved generation too) and
// firing OnMapChange, so shape-specialized code is dropped exactly
// like any other customization of m. No-op unless ShapeTracking is on.
func (w *World) NoteFieldStore(m *Map, idx int, v Value) {
	if !w.ShapeTracking || m == nil || idx < 0 || idx >= len(m.Tags) {
		return
	}
	t := &m.Tags[idx]
	vm := w.MapOf(v)
	old := t.Load()
	if old == vm || old == PolyShape {
		return
	}
	if old == nil {
		if t.CompareAndSwap(nil, vm) {
			return
		}
		if old = t.Load(); old == vm || old == PolyShape {
			return
		}
	}
	// Widening order matters: the tag goes polymorphic BEFORE the
	// generation moves, and the caller stores the new field value only
	// after this returns. A specializer that reads the generation first
	// and the tag second therefore either sees PolyShape (no fact) or a
	// generation the widening has already left behind (its guard fails)
	// — it can never stamp a current generation on the stale tag.
	t.Store(PolyShape)
	w.ShapeGen.Add(1)
	if w.OnMapChange != nil {
		w.OnMapChange(m)
	}
}

// SlotTypeTag reports the monomorphic typed-shape tag of m's field idx,
// or nil when the field is untagged or polymorphic. The caller must
// pair the read with a ShapeGen read taken beforehand to detect
// widenings that race with it.
func (w *World) SlotTypeTag(m *Map, idx int) *Map {
	if m == nil || idx < 0 || idx >= len(m.Tags) {
		return nil
	}
	p := m.Tags[idx].Load()
	if p == PolyShape {
		return nil
	}
	return p
}

// MapOf returns the map of any value.
func (w *World) MapOf(v Value) *Map {
	switch v.K() {
	case KNil:
		return w.NilMap
	case KInt:
		return w.IntMap
	case KStr:
		return w.StrMap
	case KObj:
		return v.Obj().Map
	case KBlock:
		return w.BlockMap
	}
	return nil
}

// NewVector returns a fresh vector of n elements, each initialized to
// fill. A negative n yields an empty vector: callers on checked paths
// reject negative sizes before getting here, and the unchecked path
// must not be able to panic the Go runtime through make.
func (w *World) NewVector(n int, fill Value) *Object {
	if n < 0 {
		n = 0
	}
	e := make([]Value, n)
	for i := range e {
		e[i] = fill
	}
	return &Object{Map: w.VecMap, Elems: e}
}

// Load installs a parsed file's slots into the lobby. Slot initializers
// are evaluated at load time (literals, lobby references, object
// literals). Definitions are processed in order, so files may refer to
// anything defined earlier.
func (w *World) Load(f *ast.File) error {
	for _, s := range f.Slots {
		if err := w.installSlot(w.Lobby, s); err != nil {
			return err
		}
	}
	return nil
}

// LoadSource parses src and loads it. Exposed for convenience;
// the parse error, if any, is returned.
func (w *World) installSlot(target *Object, s *ast.Slot) error {
	m := target.Map
	switch s.Kind {
	case ast.MethodSlot:
		meth := &Method{Sel: s.Name, Ast: s.Method, Holder: m}
		w.addSlot(m, Slot{Name: s.Name, Kind: MethodSlot, Meth: meth})
	case ast.ConstSlot:
		v, err := w.evalInit(s.Init)
		if err != nil {
			return fmt.Errorf("slot %s: %w", s.Name, err)
		}
		w.addSlot(m, Slot{Name: s.Name, Kind: ConstSlot, Value: v})
	case ast.ParentSlot:
		v, err := w.evalInit(s.Init)
		if err != nil {
			return fmt.Errorf("slot %s: %w", s.Name, err)
		}
		w.addSlot(m, Slot{Name: s.Name, Kind: ParentSlot, Value: v})
	case ast.DataSlot:
		v, err := w.evalInit(s.Init)
		if err != nil {
			return fmt.Errorf("slot %s: %w", s.Name, err)
		}
		ds := w.addSlot(m, Slot{Name: s.Name, Kind: DataSlot})
		w.addSlot(m, Slot{Name: s.Name + ":", Kind: AssignSlot, Index: ds.Index})
		for len(target.Fields) < m.NFields {
			target.Fields = append(target.Fields, Nil())
		}
		w.NoteFieldStore(m, ds.Index, v)
		target.Fields[ds.Index] = v
	default:
		return fmt.Errorf("slot %s: unknown kind %v", s.Name, s.Kind)
	}
	return nil
}

// evalInit evaluates a slot initializer at world-build time.
func (w *World) evalInit(e ast.Expr) (Value, error) {
	switch n := e.(type) {
	case nil:
		return Nil(), nil
	case *ast.IntLit:
		return Int(n.Value), nil
	case *ast.StrLit:
		return Str(n.Value), nil
	case *ast.Ident:
		r, ok := Lookup(w.Lobby.Map, n.Name)
		if !ok {
			return Nil(), fmt.Errorf("%s: undefined global %q in slot initializer", n.P, n.Name)
		}
		if v, ok := w.globalSlot(r); ok {
			return v, nil
		}
		return Nil(), fmt.Errorf("%s: global %q is not a value slot", n.P, n.Name)
	case *ast.ObjectLit:
		return w.BuildObject(n)
	default:
		return Nil(), fmt.Errorf("%s: slot initializers must be literals, globals or object literals (got %T)", e.Pos(), e)
	}
}

// BuildObject constructs a fresh prototype from an object literal,
// creating a new map for it.
func (w *World) BuildObject(lit *ast.ObjectLit) (Value, error) {
	m := w.newMap(fmt.Sprintf("obj@%s", lit.P))
	o := &Object{Map: m}
	for _, s := range lit.Slots {
		if err := w.installSlot(o, s); err != nil {
			return Nil(), err
		}
	}
	// Name the map after a "name" const slot when present, for
	// readable diagnostics and CFG dumps.
	if ns := m.SlotNamed("objectName"); ns != nil && ns.Value.K() == KStr {
		m.Name = ns.Value.S()
	}
	return Obj(o), nil
}

// Finalize patches the built-in maps' parent slots to the traits
// objects the prelude defines (traitsInteger, traitsString,
// traitsVector, traitsBlock, traitsNil, traitsTrue, traitsFalse).
// Safe to call repeatedly.
func (w *World) Finalize() {
	patch := func(m *Map, traitsName string) {
		r, ok := Lookup(w.Lobby.Map, traitsName)
		if !ok || r.Slot.Kind != ConstSlot {
			return
		}
		if ps := m.SlotNamed("parent"); ps != nil {
			if !ps.Value.Eq(r.Slot.Value) {
				ps.Value = r.Slot.Value
				if w.OnMapChange != nil {
					w.OnMapChange(m)
				}
			}
		}
	}
	patch(w.IntMap, "traitsInteger")
	patch(w.StrMap, "traitsString")
	patch(w.VecMap, "traitsVector")
	patch(w.BlockMap, "traitsBlock")
	patch(w.NilMap, "traitsNil")
	patch(w.TrueObj.Map, "traitsTrue")
	patch(w.FalseObj.Map, "traitsFalse")
}

// GlobalValue reads a lobby slot's current value (const or data).
func (w *World) GlobalValue(name string) (Value, bool) {
	r, ok := Lookup(w.Lobby.Map, name)
	if !ok {
		return Nil(), false
	}
	return w.globalSlot(r)
}

// globalSlot reads the value of a slot that lookup from the lobby
// found: a const or parent slot's value, or a data slot's field in the
// object that holds it, which is an ancestor when the slot is
// inherited through a parent and the lobby itself otherwise.
func (w *World) globalSlot(r LookupResult) (Value, bool) {
	switch r.Slot.Kind {
	case ConstSlot, ParentSlot:
		return r.Slot.Value, true
	case DataSlot:
		holder := r.Holder
		if holder == nil {
			holder = w.Lobby
		}
		return holder.Fields[r.Slot.Index], true
	}
	return Nil(), false
}

// Bool returns the world's true or false object as a Value.
func (w *World) Bool(b bool) Value {
	if b {
		return Obj(w.TrueObj)
	}
	return Obj(w.FalseObj)
}
