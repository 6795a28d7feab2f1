package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"selfgo/internal/ir"
	"selfgo/internal/types"
)

// env is the variable→type mapping of §3: the compiler's knowledge at
// one point on one control-flow path, keyed by virtual register. A
// register without a binding is of unknown type, and unknown is never
// stored: binding a register to it removes the binding.
//
// Flows fork at every branch and most of them write a handful of
// registers before they merge again, so the bindings live in chunks of
// chunkRegs consecutive registers that forked environments share until
// one of them writes. Three invariants (DESIGN.md §4):
//
//   - sharing: a chunk is written in place only by the env whose owner
//     token it carries; every other env copies it first;
//   - fork: clone gives the copy no token and takes the original's away,
//     so after a fork neither side writes a chunk the other can see;
//   - pruning: an env built by a merge (mergeFlows, restrict) holds
//     bindings for the registers it was told to keep and no others.
type env struct {
	chunks []*envChunk // nil entries hold no bindings
	own    *envOwner   // nil until the first write after a fork
}

const chunkRegs = 32

type envChunk struct {
	owner   *envOwner
	present uint32 // registers with a binding
	blk     uint32 // those bound to a types.Blk
	t       [chunkRegs]types.Type
}

// envOwner is an identity: its address is the token. (Not zero-sized —
// distinct zero-sized values may share an address.)
type envOwner struct{ _ byte }

// noChunk stands in for a missing chunk on the read side.
var noChunk envChunk

// chunk returns the i'th chunk for reading.
func (e *env) chunk(i int) *envChunk {
	if i < len(e.chunks) && e.chunks[i] != nil {
		return e.chunks[i]
	}
	return &noChunk
}

// at returns the type of the chunk's k'th register.
func (c *envChunk) at(k int) types.Type {
	if c.present&(1<<k) != 0 {
		return c.t[k]
	}
	return types.Unknown{}
}

// put binds the chunk's k'th register; the caller owns the chunk.
func (c *envChunk) put(k int, t types.Type) {
	bit := uint32(1) << k
	c.present &^= bit
	c.blk &^= bit
	switch t.(type) {
	case nil:
		panic("core: nil type bound in env")
	case types.Unknown:
		c.t[k] = nil
		return
	case types.Blk:
		c.blk |= bit
	}
	c.present |= bit
	c.t[k] = t
}

// restrict returns the chunk with only the bindings in keep: c itself
// when it has no others, nil when none survive, else a copy owned by
// nobody.
func (c *envChunk) restrict(keep uint32) *envChunk {
	switch {
	case c.present&keep == 0:
		return nil
	case c.present&^keep == 0:
		return c
	}
	out := &envChunk{present: c.present & keep, blk: c.blk & keep}
	for m := out.present; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		out.t[k] = c.t[k]
	}
	return out
}

// disown gives up in-place writes to e's chunks; called when another
// env starts sharing them.
func (e *env) disown() { e.own = nil }

func (e *env) clone() *env {
	e.disown()
	return &env{chunks: append([]*envChunk(nil), e.chunks...)}
}

// get returns the type bound to r; absent bindings are unknown.
func (e *env) get(r ir.Reg) types.Type {
	if r < 0 {
		return types.Unknown{}
	}
	return e.chunk(int(r) / chunkRegs).at(int(r) % chunkRegs)
}

func (e *env) set(r ir.Reg, t types.Type) {
	if r == ir.NoReg {
		return
	}
	i, k := int(r)/chunkRegs, int(r)%chunkRegs
	if _, unknown := t.(types.Unknown); unknown && e.chunk(i).present&(1<<k) == 0 {
		return // already unknown: do not un-share the chunk
	}
	e.writable(i).put(k, t)
}

// writable returns the i'th chunk, owned by e.
func (e *env) writable(i int) *envChunk {
	if e.own == nil {
		e.own = new(envOwner)
	}
	for len(e.chunks) <= i {
		e.chunks = append(e.chunks, nil)
	}
	c := e.chunks[i]
	switch {
	case c == nil:
		c = &envChunk{owner: e.own}
	case c.owner != e.own:
		cp := *c
		c = &cp
		c.owner = e.own
	default:
		return c
	}
	e.chunks[i] = c
	return c
}

// restrict returns an env holding e's bindings for the registers in
// keep and no others, sharing every chunk it need not change.
func (e *env) restrict(keep regMask) *env {
	e.disown()
	out := &env{chunks: make([]*envChunk, len(e.chunks))}
	for i, c := range e.chunks {
		if c != nil {
			out.chunks[i] = c.restrict(keep.word(i))
		}
	}
	return out
}

// equalOn reports whether two envs agree on every register in regs.
func (e *env) equalOn(o *env, regs regMask) bool {
	for i := 0; i < len(e.chunks) || i < len(o.chunks); i++ {
		a, b := e.chunk(i), o.chunk(i)
		if a == b {
			continue
		}
		for m := regs.word(i) & (a.present | b.present); m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			if !types.Equal(a.at(k), b.at(k)) {
				return false
			}
		}
	}
	return true
}

func (e *env) String() string {
	var parts []string
	for i := range e.chunks {
		c := e.chunk(i)
		for m := c.present; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			parts = append(parts, fmt.Sprintf("r%d:%s", i*chunkRegs+k, c.t[k]))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// regMask is a set of registers laid out like an env's chunk table:
// word i holds registers i*chunkRegs … i*chunkRegs+31.
type regMask []uint32

func (m regMask) word(i int) uint32 {
	if i < len(m) {
		return m[i]
	}
	return 0
}

func (m regMask) has(r ir.Reg) bool {
	return r >= 0 && m.word(int(r)/chunkRegs)&(1<<(int(r)%chunkRegs)) != 0
}

// with returns m plus r (NoReg adds nothing); m itself is not changed.
func (m regMask) with(r ir.Reg) regMask {
	if r == ir.NoReg || m.has(r) {
		return m
	}
	out := make(regMask, max(len(m), int(r)/chunkRegs+1))
	copy(out, m)
	out.add(r)
	return out
}

func (m *regMask) add(r ir.Reg) {
	for len(*m) <= int(r)/chunkRegs {
		*m = append(*m, 0)
	}
	(*m)[int(r)/chunkRegs] |= 1 << (int(r) % chunkRegs)
}

func (m regMask) remove(r ir.Reg) { m[int(r)/chunkRegs] &^= 1 << (int(r) % chunkRegs) }

// flow is one control-flow path under construction: an attachment point
// in the graph plus the type environment along that path. The compiler
// carries a set of flows; deferring the merge of flows whose envs
// differ is our forward formulation of extended message splitting (see
// DESIGN.md §4).
type flow struct {
	from *ir.Node // node whose successor slot `slot` is the open edge
	slot int
	env  *env

	// uncommon marks paths downstream of primitive failures or failed
	// type tests; splitting never keeps extra copies of them (§4).
	uncommon bool

	// copied counts nodes emitted on this flow while other common
	// flows were alive — the "number of copied nodes" of the paper's
	// splitting threshold.
	copied int

	// facts, lens and copies implement the §7 future-work extension
	// (Config.ComparisonFacts): facts records "a < b" relations proved
	// by taken branches, lens maps a vector register to a register
	// already holding its length, and copies canonicalizes registers
	// across Moves so a fact proved about a copy matches. All three are
	// path knowledge: merges drop them, assignments invalidate them.
	facts  map[factKey]bool
	lens   map[ir.Reg]ir.Reg
	copies map[ir.Reg]ir.Reg
}

// factKey is a proved strict "A < B" relation between registers.
type factKey struct {
	a, b ir.Reg
}

// copyFacts copies path knowledge from another flow (used when a branch
// creates successor flows).
func (f *flow) copyFacts(from *flow) {
	if len(from.facts) > 0 {
		f.facts = make(map[factKey]bool, len(from.facts))
		for k := range from.facts {
			f.facts[k] = true
		}
	}
	if len(from.lens) > 0 {
		f.lens = make(map[ir.Reg]ir.Reg, len(from.lens))
		for k, v := range from.lens {
			f.lens[k] = v
		}
	}
	if len(from.copies) > 0 {
		f.copies = make(map[ir.Reg]ir.Reg, len(from.copies))
		for k, v := range from.copies {
			f.copies[k] = v
		}
	}
}

// canon follows the copy chain to the defining register.
func (f *flow) canon(r ir.Reg) ir.Reg {
	for i := 0; i < 32; i++ {
		c, ok := f.copies[r]
		if !ok {
			return r
		}
		r = c
	}
	return r
}

// noteCopy records that dst is a copy of src.
func (f *flow) noteCopy(dst, src ir.Reg) {
	if f.copies == nil {
		f.copies = map[ir.Reg]ir.Reg{}
	}
	f.copies[dst] = f.canon(src)
}

// addFact records a proved "a < b" (registers canonicalized).
func (f *flow) addFact(a, b ir.Reg) {
	if f.facts == nil {
		f.facts = map[factKey]bool{}
	}
	f.facts[factKey{f.canon(a), f.canon(b)}] = true
}

// hasFact reports a proved "a < b" (registers canonicalized).
func (f *flow) hasFact(a, b ir.Reg) bool {
	return f.facts[factKey{f.canon(a), f.canon(b)}]
}

// invalidateReg drops all knowledge involving register r (called when r
// is reassigned).
func (f *flow) invalidateReg(r ir.Reg) {
	if f.facts == nil && f.lens == nil && f.copies == nil {
		return
	}
	for k := range f.facts {
		if k.a == r || k.b == r {
			delete(f.facts, k)
		}
	}
	for vec, ln := range f.lens {
		if vec == r || ln == r {
			delete(f.lens, vec)
		}
	}
	delete(f.copies, r)
	for k, v := range f.copies {
		if v == r {
			delete(f.copies, k)
		}
	}
}

// dropFacts clears all path knowledge (merges, escapes).
func (f *flow) dropFacts() {
	f.facts = nil
	f.lens = nil
}

// aliasReg records that dst now holds the same value as src (a Move).
func (f *flow) aliasReg(dst, src ir.Reg) {
	f.noteCopy(dst, src)
	if ln, ok := f.lens[f.canon(src)]; ok {
		if f.lens == nil {
			f.lens = map[ir.Reg]ir.Reg{}
		}
		f.lens[dst] = ln
	}
}

// setSucc wires slot s of node n to t, growing the successor list.
func setSucc(n *ir.Node, s int, t *ir.Node) {
	for len(n.Succ) <= s {
		n.Succ = append(n.Succ, nil)
	}
	n.Succ[s] = t
}

// scopeKind distinguishes method scopes (which ^ returns from) from
// block scopes.
type scopeKind uint8

const (
	methodScope scopeKind = iota
	blockScope
)

// scope is one lexical contour during compilation: a source method or
// block, possibly inlined into an enclosing scope.
type scope struct {
	kind   scopeKind
	parent *scope

	vars   map[string]ir.Reg // params and locals declared here
	params map[string]bool   // subset of vars that are parameters (immutable)

	selfReg  ir.Reg
	selfType types.Type

	// ret collects the flows produced by ^ expressions targeting this
	// method scope (nil for block scopes — blocks delegate to their
	// lexically enclosing method scope).
	ret *retCollector

	// nlrLanding, created on demand, is the merge node where run-time
	// non-local returns from this (inlined) method scope's escaped
	// blocks land; it feeds the scope's return collector.
	nlrLanding *ir.Node

	// stackDepth is the inline-stack depth at which this scope's source
	// text lives. Inlining a block body masks the stack back to the
	// block's defining depth: the intervening inlined methods (e.g.
	// ifTrue:False: itself) are not lexical ancestors of the block's
	// code, so sends inside it may still inline them.
	stackDepth int

	// compiledBlock is set when this scope is the body of a block
	// being compiled out-of-line (a runtime closure): a name in cells
	// resolves to an up-level access of the closure cell at its index;
	// anything else unresolved is an implicit-self send as usual.
	compiledBlock bool
	cells         []string
}

// retCollector gathers early-return flows for a method scope so they
// merge with the fall-through result at the end of the method.
type retCollector struct {
	resultReg ir.Reg
	flows     []*flow
}

// lookupVar resolves a name through the scope chain. It reports the
// register, cell -1 and true, or — when crossing into an out-of-line
// block compilation — the index of the closure cell the variable lives
// in.
func (s *scope) lookupVar(name string) (reg ir.Reg, cell int, ok bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if r, found := cur.vars[name]; found {
			return r, -1, true
		}
		if cur.compiledBlock && cur.parent == nil {
			// Out-of-line block: captured names resolve through the
			// closure; anything else is not a variable.
			cell := slices.Index(cur.cells, name)
			return ir.NoReg, cell, cell >= 0
		}
	}
	return ir.NoReg, -1, false
}

// isParam reports whether name resolves to a parameter. Parameters are
// immutable in SELF; inlining exploits this by aliasing them to the
// caller's argument registers, so type refinements on a parameter
// propagate to the variable the caller passed.
func (s *scope) isParam(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if _, found := cur.vars[name]; found {
			return cur.params[name]
		}
		if cur.compiledBlock && cur.parent == nil {
			return false
		}
	}
	return false
}

// homeMethod returns the nearest enclosing method scope (where ^
// returns to), or nil when the home is outside this compilation (an
// out-of-line block: ^ becomes a non-local return instruction).
func (s *scope) homeMethod() *scope {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.kind == methodScope {
			return cur
		}
		if cur.compiledBlock && cur.parent == nil {
			return nil
		}
	}
	return nil
}

// selfScope returns the scope defining the current receiver: blocks
// share the self of their lexically enclosing method.
func (s *scope) selfScope() *scope {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.kind == methodScope || (cur.compiledBlock && cur.parent == nil) {
			return cur
		}
	}
	return s
}
