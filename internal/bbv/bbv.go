// Package bbv implements the machinery of lazy basic-block versioning
// (Chevalier-Boisvert & Feeley, "Removing Dynamic Type Tests with
// Context-Driven Basic Block Versioning"), extended with typed object
// shapes — the third specialization strategy next to the paper's
// iterative type analysis and extended message splitting.
//
// Where eager splitting copies merge nodes at compile time so type
// facts survive control-flow joins, BBV compiles each method once as
// an unspecialized stub and materializes specialized *versions* of its
// basic blocks lazily, at the first execution of each (block, incoming
// type context) pair. A version records which register facts hold at
// entry, which facts each outgoing edge propagates, and whether the
// block's terminating type test is already proven by the context — in
// which case the test is dropped exactly as splitting drops it, just
// at run time instead of compile time.
//
// The versioning unit is the extended basic block the interpreter
// actually executes: the linear run of instructions from a branch
// target to the next control transfer (type test, compare-branch,
// jump, or return). Versions per entry point are bounded by a maxvers
// knob; once a block's table is full, new contexts fall back to a
// shared generic version (empty context — no elisions, but its out
// edges still seed specialized successors), so version tables — and
// with them host memory — stay bounded no matter how megamorphic the
// program is.
//
// Typed shapes (obj.Map.Tags) feed the second fact source: loading a
// field whose tag is monomorphic contributes the tagged map to the
// context without any test. Shape-derived facts are stamped with the
// world's shape generation; a widening store anywhere moves the
// generation, which makes stale versions fail their run-time guard
// (the elided test is performed for real) and re-materialize on their
// next entry, while the owning map's customizations are invalidated
// through the ordinary OnMapChange path.
package bbv

import (
	"sync"
	"sync/atomic"

	"selfgo/internal/obj"
)

// NoShapeGen marks a context or version that consumed no shape facts:
// it can never go stale.
const NoShapeGen = ^uint64(0)

// Fact is one register's known map. Shape marks facts that originated
// from a typed-shape tag (directly or by propagation): elisions that
// consume them must be generation-guarded at run time.
type Fact struct {
	Reg   int32
	Map   *obj.Map
	Shape bool
}

// Context is an immutable set of register facts, sorted by register.
// The zero Context is the empty (generic) context. Gen is the shape
// generation its shape-derived facts were valid at (NoShapeGen when
// none are).
type Context struct {
	facts []Fact
	Gen   uint64
}

// EmptyContext is the generic context.
func EmptyContext() Context { return Context{Gen: NoShapeGen} }

// Get returns the fact for reg, or nil.
func (c Context) Get(reg int32) *Fact {
	lo, hi := 0, len(c.facts)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.facts[mid].Reg < reg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.facts) && c.facts[lo].Reg == reg {
		return &c.facts[lo]
	}
	return nil
}

// With returns c plus (or overwriting) a fact for reg. gen is the
// shape generation the fact was read at (NoShapeGen for pure context
// facts); the context's own generation is the minimum over its facts.
func (c Context) With(reg int32, m *obj.Map, shape bool, gen uint64) Context {
	if m == nil {
		return c.Without(reg)
	}
	out := Context{facts: make([]Fact, 0, len(c.facts)+1), Gen: c.gen()}
	inserted := false
	for _, f := range c.facts {
		if f.Reg == reg {
			continue
		}
		if !inserted && f.Reg > reg {
			out.facts = append(out.facts, Fact{Reg: reg, Map: m, Shape: shape})
			inserted = true
		}
		out.facts = append(out.facts, f)
	}
	if !inserted {
		out.facts = append(out.facts, Fact{Reg: reg, Map: m, Shape: shape})
	}
	if shape && gen < out.Gen {
		out.Gen = gen
	}
	return out.normalize()
}

// Without returns c with any fact for reg removed.
func (c Context) Without(reg int32) Context {
	if c.Get(reg) == nil {
		return c
	}
	out := Context{facts: make([]Fact, 0, len(c.facts)-1), Gen: c.gen()}
	for _, f := range c.facts {
		if f.Reg != reg {
			out.facts = append(out.facts, f)
		}
	}
	return out.normalize()
}

func (c Context) gen() uint64 {
	if c.Gen == 0 && len(c.facts) == 0 {
		return NoShapeGen // the zero Context
	}
	return c.Gen
}

// normalize recomputes Gen from the surviving facts, so dropping the
// last shape fact restores NoShapeGen.
func (c Context) normalize() Context {
	hasShape := false
	for _, f := range c.facts {
		if f.Shape {
			hasShape = true
			break
		}
	}
	if !hasShape {
		c.Gen = NoShapeGen
	}
	return c
}

// Len reports the number of facts.
func (c Context) Len() int { return len(c.facts) }

// Generation is the shape generation the context's shape-derived facts
// were valid at (NoShapeGen when it has none).
func (c Context) Generation() uint64 { return c.gen() }

// UsesShape reports whether any fact is shape-derived.
func (c Context) UsesShape() bool { return c.gen() != NoShapeGen }

// Key is the canonical identity of the context within a version table:
// two contexts with the same facts (registers, maps and provenance)
// share a version.
func (c Context) Key() string {
	if len(c.facts) == 0 {
		return ""
	}
	// Map identity via the map's world-unique ID keeps the key compact
	// and stable.
	buf := make([]byte, 0, len(c.facts)*10)
	for _, f := range c.facts {
		buf = appendVarint(buf, uint64(f.Reg))
		buf = appendVarint(buf, uint64(f.Map.ID))
		if f.Shape {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf)
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Elide says what the materializer proved about a version's
// terminating type test.
type Elide uint8

const (
	// ElideNone: the test must run.
	ElideNone Elide = iota
	// ElideTrue / ElideFalse: a context fact proves the outcome; the
	// test is dropped and the recorded edge taken unconditionally.
	ElideTrue
	ElideFalse
	// ElideTrueShape / ElideFalseShape: proven by a shape-derived
	// fact; dropped only while the version's shape generation is
	// current, performed for real otherwise.
	ElideTrueShape
	ElideFalseShape
)

// Version is one materialized specialization of a basic block: the
// entry pc, the context it was specialized under, and what the
// materializer's abstract walk of the region derived.
type Version struct {
	Entry int
	Ctx   Context
	// Generic marks the block's fallback version (empty context),
	// served once the table hits the cap.
	Generic bool

	// The materializer fills the rest.

	// BranchPC is the pc of the control transfer terminating the
	// region (-1 when the region ends in a return/fault instead): the
	// run-time guard that keeps a version honest when control arrives
	// somewhere the walk didn't go (overflow branches, landing pads).
	BranchPC int
	// Elide records the fate of the terminating type test.
	Elide Elide
	// ShapeGen is the shape generation this version's shape facts
	// (inherited or read) were valid at; NoShapeGen when it has none.
	ShapeGen uint64
	// OutT/OutF are the contexts flowing out of the taken/not-taken
	// edge of the terminating branch.
	OutT, OutF Context
	// Bytes is the modelled code size of this version's region — what
	// a lazy code generator would have emitted for it (elided type
	// tests excluded).
	Bytes int64

	// succT/succF memoize the successor version per edge, so the
	// steady-state transition is one atomic load with no table lookup.
	succT, succF atomic.Pointer[Version]
}

// UsesShape reports whether the version depends on shape facts.
func (v *Version) UsesShape() bool { return v.ShapeGen != NoShapeGen }

// Fresh reports whether the version's shape facts are still current:
// its run-time elide guard would pass.
func (v *Version) Fresh(shapeGen uint64) bool {
	return v.ShapeGen == NoShapeGen || v.ShapeGen == shapeGen
}

// usable reports whether a stored version is sound to serve to a flow
// arriving with context generation ctxGen: the version's guards must
// never pass while an inherited fact is unverified, which holds
// exactly when the version's generation does not exceed the flow's
// (a version stamped with a newer generation than the facts it
// inherits could elide on facts the current flow never verified).
func (v *Version) usable(ctxGen uint64) bool {
	return v.ShapeGen <= ctxGen || v.ShapeGen == NoShapeGen
}

// Out returns the context flowing out of the taken (true) or
// not-taken edge.
func (v *Version) Out(taken bool) Context {
	if taken {
		return v.OutT
	}
	return v.OutF
}

// Succ returns the memoized successor for the edge, if any.
func (v *Version) Succ(taken bool) *Version {
	if taken {
		return v.succT.Load()
	}
	return v.succF.Load()
}

// SetSucc memoizes the successor for the edge.
func (v *Version) SetSucc(taken bool, s *Version) {
	if taken {
		v.succT.Store(s)
	} else {
		v.succF.Store(s)
	}
}

// block is one entry point's version table.
type block struct {
	vers    map[string]*Version
	generic *Version
}

// State is the version store of one compiled Code: entry pc → bounded
// version table. It is shared by every VM running the code, so all
// table mutation is under one mutex; the interpreter's steady state
// never takes it (memoized successor pointers).
type State struct {
	mu     sync.Mutex
	blocks map[int]*block

	// entry memoizes the method-entry (pc 0) version so steady-state
	// invocation skips the table entirely.
	entry atomic.Pointer[Version]

	// versions/capHits are lifetime totals across all VMs (the
	// host-memory bound the cap test asserts); per-run deltas are
	// accounted by the VM into its RunStats.
	versions atomic.Int64
	capHits  atomic.Int64
}

// MaxVers bounds the specialized versions a block materializes before
// the generic fallback takes the tail — the knee reported by
// Chevalier-Boisvert & Feeley (≥5 captures nearly all elisions at
// modest code growth).
const MaxVers = 5

// NewState builds an empty version store.
func NewState() *State {
	return &State{blocks: map[int]*block{}}
}

// Counts reports lifetime totals: versions materialized and cap hits
// (specialized contexts served by the generic fallback).
func (s *State) Counts() (versions, capHits int64) {
	return s.versions.Load(), s.capHits.Load()
}

// VersionsAt reports how many specialized versions exist for the
// block at pc (tests).
func (s *State) VersionsAt(pc int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.blocks[pc]; b != nil {
		return len(b.vers)
	}
	return 0
}

// PerBlockMax reports the largest specialized-version table across all
// blocks — the cap invariant the version-bound test asserts: no block
// ever holds more than MaxVers specialized versions, however
// megamorphic the program.
func (s *State) PerBlockMax() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0
	for _, b := range s.blocks {
		if len(b.vers) > max {
			max = len(b.vers)
		}
	}
	return max
}

// Entry returns the memoized method-entry version (nil before the
// first anchor). The caller re-validates freshness.
func (s *State) Entry() *Version { return s.entry.Load() }

// SetEntry memoizes the method-entry version.
func (s *State) SetEntry(v *Version) { s.entry.Store(v) }

// Enter resolves (pc, ctx) to a version, materializing through mat on
// first sight — the lazy-stub discipline: nothing is specialized until
// an edge is actually traversed. worldGen is the world's current shape
// generation. A stored version is re-materialized in place when it is
// either too new for the arriving flow (stamped past the flow's
// context generation, so its guards could pass on unverified facts —
// see Version.usable) or stale while the flow is current (re-deriving
// regains the elisions a widening suspended). A specialized context
// arriving at a full table is served the block's generic version
// instead (materialized on demand, not counted against the cap) and
// reported as a cap hit.
func (s *State) Enter(pc int, ctx Context, worldGen uint64, mat func(*Version)) (v *Version, materialized, capped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[pc]
	if b == nil {
		b = &block{vers: map[string]*Version{}}
		s.blocks[pc] = b
	}
	ctxGen := ctx.gen()
	reuse := func(v *Version) bool {
		if !v.usable(ctxGen) {
			return false
		}
		// Usable but stale while the flow is current: re-specialize.
		refresh := v.ShapeGen != NoShapeGen && v.ShapeGen != worldGen && ctxGen >= worldGen
		return !refresh
	}
	key := ctx.Key()
	generic := key == ""
	if !generic {
		if v := b.vers[key]; v != nil {
			if reuse(v) {
				return v, false, false
			}
			nv := s.materialize(pc, ctx, false, mat)
			b.vers[key] = nv
			return nv, true, false
		}
		if len(b.vers) < MaxVers {
			nv := s.materialize(pc, ctx, false, mat)
			b.vers[key] = nv
			return nv, true, false
		}
		// Table full: the generic version takes the tail.
		s.capHits.Add(1)
		capped = true
	}
	// The generic version inherits nothing, so soundness never depends
	// on the arriving flow's generation: reuse it whenever its own
	// in-region derivations are current (or it has none), and
	// re-materialize only to recover elisions after a widening.
	if v := b.generic; v != nil && (v.ShapeGen == NoShapeGen || v.ShapeGen == worldGen) {
		return v, false, capped
	}
	nv := s.materialize(pc, EmptyContext(), true, mat)
	b.generic = nv
	return nv, true, capped
}

func (s *State) materialize(pc int, ctx Context, generic bool, mat func(*Version)) *Version {
	v := &Version{Entry: pc, Ctx: ctx, Generic: generic, BranchPC: -1, ShapeGen: NoShapeGen}
	mat(v)
	s.versions.Add(1)
	return v
}
