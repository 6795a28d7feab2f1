package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/codecache"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// Calling convention shared with the compiler: register 0 is the
// receiver, register 1 the result slot, parameters start at 2.
const (
	RegSelf      = 0
	RegParamBase = 2
)

// RunStats is the dynamic cost accounting for one execution.
type RunStats struct {
	Cycles       int64
	Instrs       int64
	Sends        int64 // dynamically-dispatched sends executed
	ICHits       int64
	ICMisses     int64
	Calls        int64 // statically-bound calls
	TypeTests    int64
	OvflChecks   int64
	BoundsChecks int64
	BlockValues  int64
	Allocs       int64
	AllocBytes   int64 // modelled bytes of vector/clone storage (per-element charge)
	MaxDepth     int

	// Adaptive-tier activity this VM performed during the run; always
	// zero outside adaptive mode, so differential comparisons of whole
	// RunStats across eager modes stay exact.
	Promotions int64 // tier-promotion requests fired (OnHot accepted by the cache)
	Harvests   int64 // type-feedback harvests taken from this VM's inline caches

	// Lazy basic-block-versioning activity (vm/bbv.go); all zero under
	// the split strategy, so whole-RunStats differentials there stay
	// exact.
	BBVVersions     int64 // block versions this VM materialized
	BBVCapHits      int64 // specialized contexts served the generic fallback at the cap
	BBVElidedCtx    int64 // type tests elided by a context-proven fact
	BBVElidedShape  int64 // type tests elided by a typed-shape fact
	BBVVersionBytes int64 // modelled bytes of the versions this VM materialized
}

// CompileRecord aggregates on-the-fly compilation work triggered by a
// run: the paper's compile-time and code-space numbers are sums over
// all methods compiled while the benchmark warms up. Methods and
// CodeBytes count only compilations this VM itself performed — code
// another VM sharing the cache compiled arrives as a CacheHits or
// CacheWaits instead.
type CompileRecord struct {
	Methods   int
	CodeBytes int

	// Degraded counts compilations that succeeded only under the
	// degraded fallback configuration after the optimizing compiler
	// failed or panicked (see core.Degraded).
	Degraded int

	// Code-cache outcomes observed by this VM. A lone VM hits code it
	// compiled itself once its memos were dropped (a load or
	// promotion moved the cache's generation).
	CacheHits   int64 // code found already compiled in the cache
	CacheMisses int64 // compilations this VM won (== compiler runs)
	CacheWaits  int64 // blocked on another VM's in-flight compilation
}

// VM executes compiled code, compiling methods and blocks on demand
// through the injected callbacks (dynamic compilation, as in both SELF
// systems and ParcPlace Smalltalk).
type VM struct {
	World *obj.World

	// CompileMethod compiles a method customized for rmap (rmap nil
	// when customization is off).
	CompileMethod func(m *obj.Method, rmap *obj.Map) (*Code, error)
	// CompileBlock compiles a block for out-of-line execution; cells
	// names the closure's cells in order (see ir.CaptureNames).
	CompileBlock func(b *ast.Block, cells []string) (*Code, error)

	// Customize keys the code cache by receiver map.
	Customize bool
	// SendExtra is added to every dynamic send (old SELF-90 overhead).
	SendExtra int64
	// InstrExtra is added to every executed instruction (ST-80's
	// translated-code quality penalty).
	InstrExtra int64
	// MissHandlers models §6.1 call-site-specific miss handlers.
	MissHandlers bool
	// PICs enables polymorphic inline caches (up to picEntries maps
	// per send site).
	PICs bool

	// Strategy distinguishes code compiled under different
	// specialization strategies in the code cache (see
	// core.Strategy; the numeric value is mixed into every cache key).
	// Execution itself keys off Code.bbv, not this field.
	Strategy uint8

	// OnHot, when non-nil, enables hotness tracking: every invocation
	// and loop backedge charges one atomic add on the executed Code's
	// Hot counters, and the first time a Code's combined count reaches
	// PromoteThreshold the hook fires — exactly once per Code (a CAS
	// guards it), on this VM's goroutine, from inside the run loop.
	// The hook must not re-enter the VM. Nil leaves the fast path
	// entirely free of hotness work.
	OnHot func(code *Code)
	// PromoteThreshold is the invocations+backedges count at which
	// OnHot fires. Values <= 0 fire on the first execution.
	PromoteThreshold int64

	// Arena, when non-nil, backs vector and clone storage with
	// recycled per-VM chunks instead of individual Go allocations.
	// The owner decides the epoch boundary by calling Arena.Reset
	// between runs (never during one): the serving layer resets when a
	// pooled VM returns to the pool. Nil keeps plain heap allocation.
	Arena *obj.Arena

	// Cache is where the VM finds all code: a sharded single-flight
	// code cache, which may be shared by many VMs. Compiled Code is
	// read-only once assembled; each VM keeps its own inline caches for
	// it (see linked). A VM built without a Cache gets one of its own in
	// init. A VM itself is single-goroutine; concurrency comes from
	// running one VM per goroutine against one Cache and one World
	// (read-side).
	Cache *codecache.Cache[*Code]

	// Budget bounds each execution (zero fields are unlimited); see
	// Budget. RunMethodCtx additionally honors context cancellation.
	// It comes after Arena and Cache so that they and the limits the run
	// loop reads lie within 128 bytes of the VM's start, where an
	// instruction reaches them with a one-byte displacement: Deadline,
	// read only at a poll, is the field past that line, and the run
	// loop's machine code is the same with it as without.
	Budget Budget

	// Out receives _Print output (defaults to io.Discard).
	Out io.Writer

	// Trace, when non-nil, receives one line per executed instruction
	// (pc, rendered instruction, frame depth) — the moral equivalent of
	// single-stepping the generated SPARC code. Read at the start of a
	// run (see startRun): the line is written by poll, which tracing
	// makes every dispatch reach.
	Trace io.Writer

	Stats   RunStats
	Compile CompileRecord

	// methods and blocks memoize what Cache resolved (an L1 over it:
	// sends are far hotter than compiles, so resolving them here keeps
	// VMs off the shard locks), and links holds this VM's linked form of
	// every Code it has run. All three were filled at cache generation
	// gen, and are dropped when the generation moves (see checkGen).
	methods map[methodKey]*linked
	blocks  map[*ast.Block]*linked
	links   map[*Code]*linked
	gen     int64

	depth int

	// freeFrames is the activation-frame freelist (see pool.go). No
	// locking: a VM is single-goroutine, frames never cross VMs.
	freeFrames []*frame
	// Frames counts what the freelist did, over the VM's lifetime.
	Frames FrameStats

	// argScratch is the reusable argument buffer for argVals. Safe as a
	// single per-VM buffer because every consumer copies or consumes the
	// arguments before any nested guest execution can refill it.
	argScratch []obj.Value

	// Cooperative budget state for the current run (see budget.go):
	// ctx is the cancellation context (nil when none), pollAt the
	// Instrs count at which the run loop next calls poll, budgetAt the
	// next point of the budget/cancellation grid (pollAt is parked below
	// every count while tracing, so each dispatch reaches poll, and is
	// budgetAt otherwise), pollEvery the armed stride (Budget.PollEvery
	// or the default), fuelStart/allocStart the counters at run entry
	// (budgets are per-run).
	ctx        context.Context
	pollAt     int64
	budgetAt   int64
	pollEvery  int64
	fuelStart  int64
	allocStart int64
	bytesStart int64

	// curEp caches Arena.Epoch() for the duration of a run (0 when no
	// arena): the store barrier compares every written-to object's
	// epoch against it, and only mismatches take the slow path.
	curEp uint32
}

type methodKey struct {
	meth *obj.Method
	rmap *obj.Map
}

// linked is a Code as one VM runs it: the shared Code plus this VM's
// inline caches for its send sites, exactly as each native SELF
// process would have its own writable inline-cache words. The memos,
// the inline caches' callee memos and every frame hold linked code, so
// a steady-state send reaches its cache with no map lookup.
type linked struct {
	code *Code
	ics  []inlineCache
	gen  int64 // the cache generation the link was made at
}

// frame is one activation.
type frame struct {
	regs []obj.Value
	lk   *linked      // the running code and this VM's inline caches for it (see relink)
	cl   *obj.Closure // block frames: the closure, whose Cells LoadUp and StoreUp index
	home homeRef      // where a non-local return lands
	dead bool

	// escaped marks frames a closure has captured (registers by address
	// and/or the frame itself as a non-local-return home); such frames
	// must never return to the pool — a recycled home would make a dead
	// frame look live again. See makeBlock and pool.go.
	escaped bool
}

// homeRef identifies the home of a non-local return: a frame, plus —
// when the home method was inlined — the pc of its epilogue landing
// and the register receiving the value. resume < 0 means "return from
// the whole frame".
type homeRef struct {
	fr     *frame
	resume int32
	reg    ir.Reg
}

// closureEnv is what the VM keeps in a closure's Env: the home of its
// non-local return, and the capture list of the MkBlk that made it,
// which names the closure's cells.
type closureEnv struct {
	home homeRef
	caps []ir.Capture
}

// nlr is the panic payload of a non-local return.
type nlr struct {
	ref homeRef
	val obj.Value
}

func (vm *VM) init() {
	if vm.pollAt == 0 {
		vm.pollAt = math.MaxInt64
	}
	if vm.Cache == nil {
		vm.Cache = codecache.New[*Code]()
	}
	if vm.links == nil {
		vm.methods = map[methodKey]*linked{}
		vm.blocks = map[*ast.Block]*linked{}
		vm.links = map[*Code]*linked{}
	}
	if vm.Out == nil {
		vm.Out = io.Discard
	}
}

// CodeFor returns (compiling on demand) the code for meth with
// receiver map rmap.
func (vm *VM) CodeFor(meth *obj.Method, rmap *obj.Map) (*Code, error) {
	l, err := vm.methodCode(meth, rmap)
	if err != nil {
		return nil, err
	}
	return l.code, nil
}

func (vm *VM) methodCode(meth *obj.Method, rmap *obj.Map) (*linked, error) {
	vm.init()
	vm.checkGen()
	key := methodKey{meth: meth}
	if vm.Customize {
		key.rmap = rmap
	}
	if l, ok := vm.methods[key]; ok {
		return l, nil
	}
	c, err := vm.cacheGet(codecache.Key{Meth: meth, RMap: key.rmap, Strat: vm.Strategy}, func() (*Code, error) {
		return vm.CompileMethod(meth, key.rmap)
	})
	if err != nil {
		return nil, err
	}
	l := vm.link(c)
	vm.methods[key] = l
	return l, nil
}

func (vm *VM) blockCode(cl *obj.Closure) (*linked, error) {
	vm.init()
	vm.checkGen()
	b := cl.Ast
	if l, ok := vm.blocks[b]; ok {
		return l, nil
	}
	c, err := vm.cacheGet(codecache.Key{Blk: b, Strat: vm.Strategy}, func() (*Code, error) {
		return vm.CompileBlock(b, ir.CaptureNames(cl.Env.(*closureEnv).caps))
	})
	if err != nil {
		return nil, err
	}
	l := vm.link(c)
	vm.blocks[b] = l
	return l, nil
}

// link returns this VM's linked form of c, with fresh inline caches the
// first time c runs here (or runs again after the generation moved).
func (vm *VM) link(c *Code) *linked {
	l := vm.links[c]
	if l == nil {
		l = &linked{code: c, ics: make([]inlineCache, len(c.sites)), gen: vm.gen}
		vm.links[c] = l
	}
	return l
}

// checkGen drops this VM's memos and inline caches when the cache's
// invalidation generation has moved: whatever they resolved may since
// have been evicted (a map changed shape) or promoted. The check is one
// atomic load.
func (vm *VM) checkGen() {
	if g := vm.Cache.Generation(); g != vm.gen {
		clear(vm.methods)
		clear(vm.blocks)
		clear(vm.links)
		vm.gen = g
	}
}

// cacheGet routes a compilation through the code cache, folding the
// single-flight outcome into this VM's compile record: only the flight
// winner charges Methods/CodeBytes, so summing records across VMs still
// counts each compilation exactly once. A compile callback that
// panicked inside the flight surfaces to every caller as a
// KindInternal RuntimeError with the Go stack attached.
func (vm *VM) cacheGet(key codecache.Key, compile func() (*Code, error)) (*Code, error) {
	c, outcome, err := vm.Cache.Get(key, compile)
	if err != nil {
		var pe *codecache.PanicError
		if errors.As(err, &pe) {
			return nil, &RuntimeError{Kind: KindInternal, Msg: pe.Error(), GoStack: pe.Stack}
		}
		return nil, err
	}
	switch outcome {
	case codecache.Compiled:
		vm.Compile.CacheMisses++
		vm.Compile.Methods++
		vm.Compile.CodeBytes += c.Bytes
	case codecache.Hit:
		vm.Compile.CacheHits++
	case codecache.Wait:
		vm.Compile.CacheWaits++
	}
	return c, nil
}

// relink gives fr its code's current link. A send site's inline cache
// memoizes callee code, so it answers to the generation exactly as the
// memos do: execSend and execCall compare the frame's link against the
// cache's generation (one atomic load) before touching the cache, and
// relink when it has moved — after an invalidation, to fresh caches.
func (vm *VM) relink(fr *frame) {
	vm.checkGen()
	fr.lk = vm.link(fr.lk.code)
}

const maxDepth = 100000

// RunMethod executes meth with the given receiver and arguments.
func (vm *VM) RunMethod(meth *obj.Method, recv obj.Value, args ...obj.Value) (obj.Value, error) {
	return vm.runMethod(nil, meth, recv, args)
}

// runMethod is the public execution boundary shared by RunMethod and
// RunMethodCtx: it validates arity, arms the cooperative budget poll,
// and contains any Go panic that escapes the interpreter or an
// on-demand compilation — a misbehaving guest program or a compiler
// bug degrades this call, never the process.
func (vm *VM) runMethod(ctx context.Context, meth *obj.Method, recv obj.Value, args []obj.Value) (val obj.Value, err error) {
	vm.init()
	if meth.Ast != nil {
		if want := len(meth.Ast.Params); len(args) != want {
			return obj.Nil(), &RuntimeError{Kind: KindError,
				Msg: fmt.Sprintf("%s takes %d argument(s), got %d", meth, want, len(args))}
		}
	}
	vm.startRun(ctx)
	defer func() {
		vm.ctx = nil
		vm.pollAt = math.MaxInt64
		if r := recover(); r != nil {
			val, err = obj.Nil(), containPanic(r)
		}
	}()
	l, err := vm.methodCode(meth, vm.World.MapOf(recv))
	if err != nil {
		return obj.Nil(), err
	}
	return vm.invoke(l, recv, args)
}

// invoke runs method code in a fresh frame (invokeClosure runs blocks).
func (vm *VM) invoke(l *linked, recv obj.Value, args []obj.Value) (val obj.Value, err error) {
	code := l.code
	if vm.OnHot != nil {
		vm.noteInvoke(code)
	}
	fr, err := vm.enter(l)
	if err != nil {
		return obj.Nil(), err
	}
	fr.home = homeRef{fr: fr, resume: -1}
	if code.NumRegs > RegSelf {
		fr.regs[RegSelf] = recv
	}
	fr.setArgs(code, args)
	defer func() {
		fr.dead = true
		vm.depth--
		// Recycling before the recover logic keeps the frame pooled on
		// every exit (return, nlr catch, re-panic); putFrame refuses
		// escaped frames, and no getFrame can run until unwinding ends,
		// so the identity checks below still see this fr unaliased.
		vm.putFrame(fr)
		if r := recover(); r != nil {
			if n, ok := r.(nlr); ok {
				if n.ref.fr == fr && n.ref.resume < 0 {
					val, err = n.val, nil
					return
				}
				panic(r) // keep unwinding toward the home frame
			}
			panic(r)
		}
	}()
	return vm.exec(code, fr)
}

// enter begins one activation of l: depth accounting, the depth limit,
// and a zeroed frame running l.
func (vm *VM) enter(l *linked) (*frame, error) {
	vm.depth++
	if vm.depth > vm.Stats.MaxDepth {
		vm.Stats.MaxDepth = vm.depth
	}
	if vm.depth > vm.depthLimit() {
		vm.depth--
		return nil, &RuntimeError{Kind: KindStackOverflow, Msg: "stack overflow"}
	}
	fr := vm.getFrame(l.code.NumRegs)
	fr.lk = l
	return fr, nil
}

// setArgs stores an activation's arguments. Surplus ones (a block given
// too many) are dropped — past the parameters the slots are the code's
// own — and a parameter the code never reads may have no slot at all.
func (fr *frame) setArgs(code *Code, args []obj.Value) {
	if len(args) > code.NumParams {
		args = args[:code.NumParams]
	}
	if RegParamBase < len(fr.regs) {
		copy(fr.regs[RegParamBase:], args)
	}
}

// exec runs a frame, restarting at the landing pc whenever a non-local
// return from an inlined home method unwinds into this frame.
func (vm *VM) exec(code *Code, fr *frame) (obj.Value, error) {
	if !code.hasLandings {
		// No MkBlk in this code carries a resume landing, so no nlr can
		// ever target (fr, resume>=0): skip the recover wrapper.
		return vm.run(code, fr, 0)
	}
	pc := 0
	for {
		v, resume, err := vm.execFrom(code, fr, pc)
		if resume < 0 {
			return v, err
		}
		pc = resume
	}
}

func (vm *VM) execFrom(code *Code, fr *frame, startPC int) (val obj.Value, resumePC int, err error) {
	resumePC = -1
	defer func() {
		if r := recover(); r != nil {
			if n, ok := r.(nlr); ok && n.ref.fr == fr && n.ref.resume >= 0 {
				fr.regs[n.ref.reg] = n.val
				resumePC = int(n.ref.resume)
				return
			}
			panic(r)
		}
	}()
	val, err = vm.run(code, fr, startPC)
	return val, -1, err
}

// run is the interpreter loop, the VM's one execution engine: every
// opcode's semantics are written once, in its switch.
//
// Cycle accounting is precomputed: every instruction's static modelled
// cost — and, for superinstructions, the summed cost of all
// constituents — was folded into Instr.Cost at assembly, so the loop
// charges one add per dispatch; only genuinely dynamic costs (vector
// fill, clone size, send dispatch, primitive calls) remain in the
// cases. A fused case that bails out early (fault, or a checked-arith
// branch to the overflow target) uncharges its unexecuted tail,
// keeping Stats bit-identical to the unfused stream.
//
// Budget polls and single-step tracing both ride the one
// `st.Instrs >= vm.pollAt` compare per dispatch: a traced run parks
// pollAt so every dispatch reaches poll, which writes the trace line
// (see startRun and poll). The loop itself has no tracing path.
func (vm *VM) run(code *Code, fr *frame, pc int) (obj.Value, error) {
	st := &vm.Stats
	extra := vm.InstrExtra
	trackHot := vm.OnHot != nil
	shapes := vm.World.ShapeTracking
	// Lazy basic-block versioning (vm/bbv.go): anchor a version at the
	// method entry and advance it across every branch; ver is nil when
	// the code is unversioned or control resumed at a landing pad (the
	// first branch re-anchors).
	bbvOn := code.bbv != nil
	var ver *bbvVersion
	if bbvOn && pc == 0 {
		ver = vm.bbvAnchor(code)
	}
	for pc >= 0 && pc < len(code.Instrs) {
		in := &code.Instrs[pc]
		st.Instrs += int64(in.N)
		if st.Instrs >= vm.pollAt {
			if perr := vm.poll(st, code, pc); perr != nil {
				return obj.Nil(), perr
			}
		}
		st.Cycles += int64(in.Cost)
		if extra != 0 {
			st.Cycles += extra * int64(in.N)
		}
		switch in.Op {
		case opJmp:
			if trackHot && int(in.T) <= pc {
				vm.noteBackedge(code)
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, true, int(in.T))
			}
			pc = int(in.T)
			continue
		case ir.Const:
			fr.regs[in.Dst] = code.constOf(in)
		case ir.Move:
			fr.regs[in.Dst] = fr.regs[in.A]
		case ir.LoadF:
			o := fr.regs[in.A].Obj()
			if o == nil || int(in.Aux) >= len(o.Fields) {
				return fault(errBadField(code, "access"), code, pc)
			}
			fr.regs[in.Dst] = o.Fields[in.Aux]
		case ir.StoreF:
			o := fr.regs[in.A].Obj()
			if o == nil || int(in.Aux) >= len(o.Fields) {
				return fault(errBadField(code, "store"), code, pc)
			}
			if o.Ep != vm.curEp {
				vm.escapeCheck(fr.regs[in.B])
			}
			if shapes {
				vm.World.NoteFieldStore(o.Map, int(in.Aux), fr.regs[in.B])
			}
			o.Fields[in.Aux] = fr.regs[in.B]
		case ir.LoadE:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return fault(errElemNonObject(code, "load"), code, pc)
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return fault(errElemOOB(code, "load", i, len(o.Elems)), code, pc)
			}
			fr.regs[in.Dst] = o.Elems[i]
		case ir.StoreE:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return fault(errElemNonObject(code, "store"), code, pc)
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return fault(errElemOOB(code, "store", i, len(o.Elems)), code, pc)
			}
			if o.Ep != vm.curEp {
				vm.escapeCheck(fr.regs[in.Dst])
			}
			o.Elems[i] = fr.regs[in.Dst] // StoreE's Dst holds the value stored
		case ir.VecLen:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return fault(&RuntimeError{Msg: "vecLen of non-vector"}, code, pc)
			}
			fr.regs[in.Dst] = obj.Int(int64(len(o.Elems)))
		case ir.NewVec:
			if verr := vm.makeVector(st, fr, in); verr != nil {
				return fault(verr, code, pc)
			}
		case ir.CloneOp:
			if cerr := vm.makeClone(st, fr, in); cerr != nil {
				return fault(cerr, code, pc)
			}
		case ir.Arith:
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				return fault(aerr, code, pc)
			}
			if br {
				pc = int(in.F)
				continue
			}
		case ir.CmpBr:
			taken, target := branch(st, in, fr)
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case ir.TypeTest:
			taken, elided := false, false
			if bbvOn && ver != nil && ver.BranchPC == pc && ver.Elide != bbvElideNone {
				taken, elided = vm.bbvElide(st, ver)
			}
			if !elided {
				st.TypeTests++
				taken = vm.World.MapOf(fr.regs[in.A]) == code.maps[in.Aux]
			}
			target := int(in.F)
			if taken {
				target = int(in.T)
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case ir.Send:
			v, serr := vm.execSend(code, in, fr)
			if serr != nil {
				return fault(serr, code, pc)
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.Call:
			v, cerr := vm.execCall(code, in, fr)
			if cerr != nil {
				return fault(cerr, code, pc)
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.PrimOp:
			v, perr := vm.execPrim(code, in, fr)
			if perr != nil {
				return fault(perr, code, pc)
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.MkBlk:
			vm.makeBlock(st, code, fr, in)
		case ir.Fail:
			return fault(failError(code, fr, in), code, pc)
		case ir.Return:
			return fr.regs[in.A], nil
		case ir.NLReturn:
			if fr.home.fr == nil || fr.home.fr.dead {
				return fault(&RuntimeError{Msg: "non-local return from dead home frame"}, code, pc)
			}
			panic(nlr{ref: fr.home, val: fr.regs[in.A]})
		case ir.LoadUp:
			fr.regs[in.Dst] = *fr.cl.Cells[in.Aux]
		case ir.StoreUp:
			*fr.cl.Cells[in.Aux] = fr.regs[in.A]

		// Superinstructions (fuse.go): each executes its constituents
		// exactly in order, bailing out — with an uncharge of the
		// unexecuted tail — when an early constituent faults or takes
		// its overflow branch.
		case opMoveMove:
			f := &code.tails[in.T]
			fr.regs[in.Dst] = fr.regs[in.A]
			fr.regs[f.Dst] = fr.regs[f.A]
		case opConstArith:
			f := &code.tails[in.T]
			fr.regs[in.Dst] = code.constOf(in)
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return faultIn(aerr, code, pc, f)
			}
			if br {
				pc = int(f.F)
				continue
			}
		case opLoadFArith:
			f := &code.tails[in.T]
			o := fr.regs[in.A].Obj()
			if o == nil || int(in.Aux) >= len(o.Fields) {
				vm.uncharge(st, f)
				return fault(errBadField(code, "access"), code, pc)
			}
			fr.regs[in.Dst] = o.Fields[in.Aux]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return faultIn(aerr, code, pc, f)
			}
			if br {
				pc = int(f.F)
				continue
			}
		case opLoadEArith:
			f := &code.tails[in.T]
			o := fr.regs[in.A].Obj()
			if o == nil {
				vm.uncharge(st, f)
				return fault(errElemNonObject(code, "load"), code, pc)
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				vm.uncharge(st, f)
				return fault(errElemOOB(code, "load", i, len(o.Elems)), code, pc)
			}
			fr.regs[in.Dst] = o.Elems[i]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return faultIn(aerr, code, pc, f)
			}
			if br {
				pc = int(f.F)
				continue
			}
		case opArithCmpBr:
			f := &code.tails[in.T]
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return fault(aerr, code, pc)
			}
			if br {
				vm.uncharge(st, f)
				pc = int(in.F)
				continue
			}
			taken, target := branch(st, f, fr)
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case opArithJmp:
			f := &code.tails[in.T]
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return fault(aerr, code, pc)
			}
			if br {
				vm.uncharge(st, f)
				pc = int(in.F)
				continue
			}
			if trackHot && int(f.T) <= pc {
				vm.noteBackedge(code)
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, true, int(f.T))
			}
			pc = int(f.T)
			continue
		case opConstArithCmpBr:
			f := &code.tails[in.T]   // the Arith
			g := &code.tails[in.T+1] // the CmpBr
			fr.regs[in.Dst] = code.constOf(in)
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				vm.uncharge(st, g)
				return faultIn(aerr, code, pc, f)
			}
			if br {
				vm.uncharge(st, g)
				pc = int(f.F)
				continue
			}
			taken, target := branch(st, g, fr)
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case opVecLenCmpBr:
			f := &code.tails[in.T]
			o := fr.regs[in.A].Obj()
			if o == nil {
				vm.uncharge(st, f)
				return fault(&RuntimeError{Msg: "vecLen of non-vector"}, code, pc)
			}
			fr.regs[in.Dst] = obj.Int(int64(len(o.Elems)))
			taken, target := branch(st, f, fr)
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		default:
			return fault(&RuntimeError{Msg: "bad opcode " + in.Op.String()}, code, pc)
		}
		pc++
	}
	// Falling off the end returns self (defensive; the compiler always
	// emits Return).
	if len(fr.regs) > RegSelf {
		return fr.regs[RegSelf], nil
	}
	return obj.Nil(), nil
}

// fault is how the run loop returns an error: unwinding through the
// activations it grows a Self-level backtrace, one frame per run
// invocation, pc being the faulting (or calling) instruction. A call,
// not a defer: with this many returns the run loop's defer would not be
// open-coded, and every activation paid for it.
func fault(err error, code *Code, pc int) (obj.Value, error) {
	pushFrame(err, code, pc, 0)
	return obj.Nil(), err
}

// faultIn is fault for an error raised by first, the first tail
// constituent of the superinstruction at pc: its own instruction sits
// first.N past the head's. It stays out of line: inlined into run, this
// cold path would grow the frame every send's recursion pays for.
//
//go:noinline
func faultIn(err error, code *Code, pc int, first *Instr) (obj.Value, error) {
	pushFrame(err, code, pc, int(first.N))
	return obj.Nil(), err
}

// uncharge backs out the precharged cost of a superinstruction's
// unexecuted last constituent: when an earlier one faults or branches
// to its overflow target, the last — and the self-moves it absorbed —
// never runs, and the modelled Stats must match the unfused stream,
// which would never have dispatched it.
func (vm *VM) uncharge(st *RunStats, last *Instr) {
	st.Cycles -= int64(last.Cost) + vm.InstrExtra*int64(last.N)
	st.Instrs -= int64(last.N)
}

// arithVal executes the arithmetic of in, writing the result register
// on success. branchF reports that control must transfer to the
// instruction's overflow target (checked overflow, or checked division
// by zero); err reports an unchecked-path fault. The static cycle cost
// — including the overflow-check surcharge when Checked — is precharged
// via Instr.Cost; only the OvflChecks counter is dynamic, because a
// checked div/mod by zero branches away before the overflow check runs,
// exactly as in the unfused interpreter.
func arithVal(st *RunStats, in *Instr, fr *frame) (branchF bool, err error) {
	a, b := fr.regs[in.A].I(), fr.regs[in.B].I()
	var v int64
	switch in.AOp() {
	case ir.Add:
		v = a + b
	case ir.Sub:
		v = a - b
	case ir.Mul:
		v = a * b
	case ir.Div:
		if b == 0 {
			if in.Checked() {
				return true, nil
			}
			return false, &RuntimeError{Msg: "division by zero on unchecked path"}
		}
		v = a / b
	case ir.Mod:
		if b == 0 {
			if in.Checked() {
				return true, nil
			}
			return false, &RuntimeError{Msg: "modulo by zero on unchecked path"}
		}
		v = a % b
	case ir.BAnd:
		v = a & b
	case ir.BOr:
		v = a | b
	case ir.BXor:
		v = a ^ b
	}
	if in.Checked() {
		st.OvflChecks++
		if v < obj.MinSmallInt || v > obj.MaxSmallInt {
			return true, nil
		}
	}
	fr.regs[in.Dst] = obj.Int(v)
	return false, nil
}

// branch executes the compare-branch in, reporting which edge it takes
// and where that leads.
func branch(st *RunStats, in *Instr, fr *frame) (taken bool, target int) {
	if in.Bounds() {
		st.BoundsChecks++
	}
	a, b := fr.regs[in.A], fr.regs[in.B]
	switch in.COp() {
	case ir.LT:
		taken = a.I() < b.I()
	case ir.LE:
		taken = a.I() <= b.I()
	case ir.GT:
		taken = a.I() > b.I()
	case ir.GE:
		taken = a.I() >= b.I()
	case ir.EQ:
		taken = a.Eq(b)
	case ir.NE:
		taken = !a.Eq(b)
	}
	if taken {
		return true, int(in.T)
	}
	return false, int(in.F)
}

// chargeBytes charges the modelled bytes of an n-Value storage
// allocation and enforces Budget.MaxBytes at the allocation site —
// before the storage exists. This is what turns the old `_NewVec:
// 5e8` hole into policy: a hostile size faults with the OutOfFuel
// taxonomy here instead of asking the Go runtime for gigabytes and
// letting the poll notice one alloc too late. The charge lands even
// when the check faults, mirroring how Instrs keeps counting past
// MaxInstrs until the poll fires.
func (vm *VM) chargeBytes(st *RunStats, nvals int64) error {
	st.AllocBytes += nvals * obj.ValueBytes
	if b := vm.Budget.MaxBytes; b > 0 && st.AllocBytes-vm.bytesStart > b {
		return &RuntimeError{Kind: KindOutOfFuel,
			Msg: fmt.Sprintf("out of fuel: byte budget %d exhausted (allocation of %d bytes)",
				b, nvals*obj.ValueBytes)}
	}
	return nil
}

// newVector allocates vector storage through the arena when one is
// attached, else from the Go heap.
func (vm *VM) newVector(n int, fill obj.Value) *obj.Object {
	if vm.Arena != nil {
		return vm.Arena.NewVector(vm.World.VecMap, n, fill)
	}
	return vm.World.NewVector(n, fill)
}

// cloneObject allocates a shallow copy through the arena when one is
// attached, else from the Go heap.
func (vm *VM) cloneObject(src *obj.Object) *obj.Object {
	if vm.Arena != nil {
		return vm.Arena.Clone(src)
	}
	return src.Clone()
}

// escapeCheck is the slow half of the store barrier: a value was just
// written into an object from a different epoch (the world, or an
// earlier abandoned epoch), so if the value is bound to the current
// arena epoch it can now outlive it — mark the epoch escaped, and the
// next Arena.Reset will abandon its chunks to the GC instead of
// recycling them. Blocks are conservative: a closure's Cells alias
// frame slots that stay writable after the store, so any block
// crossing an epoch boundary escapes the epoch. The fast half is the
// inlined `o.Ep != vm.curEp` compare at each store site.
func (vm *VM) escapeCheck(v obj.Value) {
	if vm.curEp == 0 {
		return // no arena this run; everything is permanent
	}
	switch v.K() {
	case obj.KObj:
		// Epoch 0 is the permanent heap; every other epoch is an arena's.
		if v.Obj().Ep != 0 {
			vm.Arena.MarkEscaped()
		}
	case obj.KBlock:
		vm.Arena.MarkEscaped()
	}
}

// makeVector executes NewVec: the base cost is precharged via
// Instr.Cost, the size-dependent fill cost is charged here. On the
// negative-size fault and on a byte-budget fault the base is
// uncharged — the unfused interpreter faulted before charging
// anything for this instruction, and no storage was allocated.
func (vm *VM) makeVector(st *RunStats, fr *frame, in *Instr) error {
	n := fr.regs[in.A].I()
	if n < 0 {
		// Reachable when the compiler's size guard was removed
		// (StaticIdeal); without this check make([]Value, n) would
		// panic the Go runtime.
		st.Cycles -= CostNewVecBase
		return &RuntimeError{Msg: "negative vector size on unchecked path"}
	}
	if berr := vm.chargeBytes(st, n); berr != nil {
		st.Cycles -= CostNewVecBase
		return berr
	}
	st.Cycles += n >> NewVecFillShift
	st.Allocs++
	fill := obj.Nil()
	if in.B != ir.NoReg {
		fill = fr.regs[in.B]
	}
	fr.regs[in.Dst] = obj.Obj(vm.newVector(int(n), fill))
	return nil
}

// makeClone executes CloneOp; the base cost is precharged, the
// per-field copy cost is charged here. A byte-budget fault uncharges
// the base, exactly like makeVector.
func (vm *VM) makeClone(st *RunStats, fr *frame, in *Instr) error {
	src := fr.regs[in.A]
	if src.K() != obj.KObj {
		fr.regs[in.Dst] = src // immediates clone to themselves
		return nil
	}
	so := src.Obj()
	if berr := vm.chargeBytes(st, int64(len(so.Fields)+len(so.Elems))); berr != nil {
		st.Cycles -= CostCloneBase
		return berr
	}
	st.Cycles += int64(len(so.Fields)+len(so.Elems)) * CostClonePerField
	st.Allocs++
	fr.regs[in.Dst] = obj.Obj(vm.cloneObject(so))
	return nil
}

// makeBlock executes MkBlk. Closure creation pins the frame: captured
// registers are taken by address and the closure's non-local-return
// home references the frame itself, so the frame must never return to
// the pool when this activation ends (see pool.go).
func (vm *VM) makeBlock(st *RunStats, code *Code, fr *frame, in *Instr) {
	fr.escaped = true
	st.Allocs++
	b := &code.blocks[in.Aux]
	caps := code.captures(b)
	cells := make([]*obj.Value, len(caps))
	for i, cap := range caps {
		switch {
		case cap.FromUp:
			cells[i] = fr.cl.Cells[cap.Src]
		case cap.ByValue:
			v := fr.regs[cap.Src]
			cells[i] = &v
		default:
			cells[i] = &fr.regs[cap.Src]
		}
	}
	// The closure's home for non-local return: a landing in this frame
	// when the home method was inlined here, otherwise this frame's own
	// home (method frames are their own home; block frames inherited
	// theirs).
	env := &closureEnv{home: fr.home, caps: caps}
	if in.T >= 0 {
		env.home = homeRef{fr: fr, resume: in.T, reg: in.A}
	}
	fr.regs[in.Dst] = obj.Blk(&obj.Closure{Ast: b.Blk, Map: vm.World.BlockMap, Env: env, Cells: cells})
}

// failError builds the error for an ir.Fail instruction, classifying by
// the failure the compiler baked in: statically unresolvable sends and
// the _Error primitive (which the prelude's primitiveFailed: routes
// through) carry kinds.
func failError(code *Code, fr *frame, in *Instr) error {
	sel := code.names[in.Aux]
	msg := sel
	if in.A != ir.NoReg {
		msg += ": " + fr.regs[in.A].String()
	}
	kind := KindError
	switch {
	case strings.HasPrefix(sel, "doesNotUnderstand:"):
		kind = KindDoesNotUnderstand
	case strings.HasPrefix(sel, "_Error"):
		kind = KindPrimitiveFailed
	}
	return &RuntimeError{Kind: kind, Msg: fmt.Sprintf("%s (in %s)", msg, code.Name)}
}

func errBadField(code *Code, what string) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: bad field %s", code.Name, what)}
}

// The unchecked element-access path distinguishes its two failure
// modes: a receiver that is not a heap object at all (nil or an
// immediate, so there is nothing to index) versus an index outside the
// vector's bounds.
func errElemNonObject(code *Code, what string) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: element %s on non-object receiver (unchecked path)", code.Name, what)}
}

func errElemOOB(code *Code, what string, i int64, n int) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: element %s index %d out of bounds (length %d) (unchecked path)", code.Name, what, i, n)}
}

// execCall performs a statically-bound call. The callee is fixed at
// compile time, so after the first call the site's cache entry (only
// its code memo is used) is the answer.
func (vm *VM) execCall(code *Code, in *Instr, fr *frame) (obj.Value, error) {
	vm.Stats.Calls++
	if fr.lk.gen != vm.Cache.Generation() {
		vm.relink(fr)
	}
	ic := &fr.lk.ics[in.Aux]
	if ic.code == nil {
		callee := code.callees[in.T]
		l, err := vm.methodCode(callee.Meth, callee.RMap)
		if err != nil {
			return obj.Nil(), err
		}
		ic.code = l
	}
	args := code.argRegs(&code.sites[in.Aux])
	return vm.invoke(ic.code, fr.regs[args[0]], vm.argVals(args[1:], fr))
}

// argVals gathers argument registers into a per-VM scratch buffer,
// avoiding a Go allocation per send. Safe because every consumer
// (invoke, invokeClosure, execPrim, the assignment-slot store) copies
// or fully consumes the values before any nested guest execution could
// refill the buffer.
func (vm *VM) argVals(regs []ir.Reg, fr *frame) []obj.Value {
	if cap(vm.argScratch) < len(regs) {
		vm.argScratch = make([]obj.Value, len(regs), len(regs)+8)
	}
	out := vm.argScratch[:len(regs)]
	for i, r := range regs {
		out[i] = fr.regs[r]
	}
	return out
}

// isValueSel reports whether sel invokes a block given nargs arguments:
// value, value:, value:Value:, ... — the selectors the compiler inlines
// on a known block. Any other send to a block is looked up like one to
// any object, so it fails as it would compiled.
func isValueSel(sel string, nargs int) bool {
	if nargs == 0 {
		return sel == "value"
	}
	sel, ok := strings.CutPrefix(sel, "value:")
	for ; ok && nargs > 1; nargs-- {
		sel, ok = strings.CutPrefix(sel, "Value:")
	}
	return ok && sel == ""
}

// execSend performs a dynamically-dispatched send with a monomorphic
// inline cache (Deutsch & Schiffman).
func (vm *VM) execSend(code *Code, in *Instr, fr *frame) (obj.Value, error) {
	st := &vm.Stats
	s, direct := &code.sites[in.Aux], in.Direct()
	regs := code.argRegs(s)
	recv := fr.regs[regs[0]]
	args := vm.argVals(regs[1:], fr)

	// Blocks answer the value protocol directly.
	if recv.K() == obj.KBlock && isValueSel(s.Sel, len(args)) {
		st.Cycles += CostBlockValue
		st.BlockValues++
		return vm.invokeClosure(recv.Blk(), args)
	}

	if direct {
		st.Cycles += CostCall
		st.Calls++
	} else {
		st.Sends++
		st.Cycles += CostSendICHit + vm.SendExtra
	}

	m := vm.World.MapOf(recv)
	if fr.lk.gen != vm.Cache.Generation() {
		vm.relink(fr)
	}
	ic := &fr.lk.ics[in.Aux] // a site's index is its cache's
	var slot *obj.Slot
	var holder *obj.Object
	// callee points at the cache entry's memo of the code a method slot
	// resolves to for this receiver map, filled on first use: a hit goes
	// straight to callee code, not through the memo tables.
	callee := &ic.code
	if ic.m == m {
		// A statically-bound site is not a modelled inline cache (no hit
		// is counted); the entry only spares the host the lookup.
		if !direct {
			st.ICHits++
		}
		slot = ic.slot
		holder = ic.holder
	} else if e := ic.picLookup(vm, m, direct); e != nil {
		st.ICHits++
		st.Cycles += CostPICExtra
		slot = e.slot
		holder = e.holder
		callee = &e.code
	} else {
		if !direct {
			st.ICMisses++
			if vm.MissHandlers {
				st.Cycles += CostSendMissHandler - CostSendICHit
			} else {
				st.Cycles += CostSendICMiss - CostSendICHit
			}
		}
		r, ok := obj.Lookup(m, s.Sel)
		if !ok {
			return obj.Nil(), &RuntimeError{Kind: KindDoesNotUnderstand,
				Msg: fmt.Sprintf("%s does not understand %q", m.Name, s.Sel)}
		}
		slot = r.Slot
		holder = r.Holder
		// The old monomorphic entry moves into the PIC before being
		// replaced (so alternating receivers settle into PIC hits).
		if ic.m != nil && ic.m != m {
			ic.picStore(vm, ic.m, ic.slot, ic.holder)
		}
		ic.m = m
		ic.slot = slot
		ic.holder = holder
		ic.code = nil
		ic.picStore(vm, m, slot, holder)
	}

	switch slot.Kind {
	case obj.ConstSlot, obj.ParentSlot:
		return slot.Value, nil
	case obj.DataSlot:
		target := holder
		if target == nil {
			target = recv.Obj()
		}
		if target == nil {
			return obj.Nil(), &RuntimeError{Msg: "data slot on immediate"}
		}
		return target.Fields[slot.Index], nil
	case obj.AssignSlot:
		target := holder
		if target == nil {
			target = recv.Obj()
		}
		if target == nil {
			return obj.Nil(), &RuntimeError{Msg: "assignment on immediate"}
		}
		if target.Ep != vm.curEp {
			vm.escapeCheck(args[0])
		}
		if vm.World.ShapeTracking {
			vm.World.NoteFieldStore(target.Map, slot.Index, args[0])
		}
		target.Fields[slot.Index] = args[0]
		return args[0], nil
	case obj.MethodSlot:
		if *callee == nil {
			l, err := vm.methodCode(slot.Meth, m)
			if err != nil {
				return obj.Nil(), err
			}
			*callee = l
		}
		return vm.invoke(*callee, recv, args)
	}
	return obj.Nil(), &RuntimeError{Msg: "bad slot kind in send"}
}

// invokeClosure runs a block closure out of line.
func (vm *VM) invokeClosure(cl *obj.Closure, args []obj.Value) (obj.Value, error) {
	l, err := vm.blockCode(cl)
	if err != nil {
		return obj.Nil(), err
	}
	code := l.code
	fr, err := vm.enter(l)
	if err != nil {
		return obj.Nil(), err
	}
	fr.cl = cl
	fr.home = cl.Env.(*closureEnv).home
	fr.setArgs(code, args)
	defer func() {
		fr.dead = true
		vm.depth--
		vm.putFrame(fr)
	}()
	return vm.exec(code, fr)
}

// execPrim runs an out-of-line robust primitive with all checks.
func (vm *VM) execPrim(code *Code, in *Instr, fr *frame) (obj.Value, error) {
	st := &vm.Stats
	st.Cycles += CostPrimOp
	p := &code.sites[in.Aux]
	sel, regs := p.Sel, code.argRegs(p)
	recv := fr.regs[regs[0]]
	args := vm.argVals(regs[1:], fr)
	fail := func(why string) (obj.Value, error) {
		if in.A != ir.NoReg { // PrimOp's A holds the failure block
			fb := fr.regs[in.A]
			if fb.K() == obj.KBlock {
				return vm.invokeClosure(fb.Blk(), nil)
			}
		}
		return obj.Nil(), &RuntimeError{Kind: KindPrimitiveFailed,
			Msg: fmt.Sprintf("primitive %s failed: %s", sel, why)}
	}
	wantInt := func(v obj.Value) bool { return v.K() == obj.KInt }
	arith, cmp := slices.Index(ir.ArithPrims[:], sel), slices.Index(ir.CmpPrims[:], sel)
	switch {
	case arith < 0 && cmp < 0:
	case !wantInt(recv) || len(args) != 1 || !wantInt(args[0]):
		return fail("not an integer")
	case cmp >= 0:
		return vm.World.Bool(ir.CmpKind(cmp).Eval(recv.I(), args[0].I())), nil
	default:
		v, ok := ir.ArithKind(arith).Eval(recv.I(), args[0].I())
		switch {
		case !ok && ir.ArithKind(arith) == ir.Div:
			return fail("division by zero")
		case !ok:
			return fail("modulo by zero")
		case v < obj.MinSmallInt || v > obj.MaxSmallInt:
			return fail("overflow")
		}
		return obj.Int(v), nil
	}
	switch sel {
	case "_Eq:":
		return vm.World.Bool(recv.Eq(args[0])), nil
	case "_At:":
		o := recv.Obj()
		if recv.K() != obj.KObj || !o.Map.Indexable || len(args) != 1 || !wantInt(args[0]) {
			return fail("bad receiver or index")
		}
		i := args[0].I()
		if i < 0 || i >= int64(len(o.Elems)) {
			return fail("index out of bounds")
		}
		return o.Elems[i], nil
	case "_At:Put:":
		o := recv.Obj()
		if recv.K() != obj.KObj || !o.Map.Indexable || len(args) != 2 || !wantInt(args[0]) {
			return fail("bad receiver or index")
		}
		i := args[0].I()
		if i < 0 || i >= int64(len(o.Elems)) {
			return fail("index out of bounds")
		}
		if o.Ep != vm.curEp {
			vm.escapeCheck(args[1])
		}
		o.Elems[i] = args[1]
		return args[1], nil
	case "_Size":
		if recv.K() != obj.KObj || !recv.Obj().Map.Indexable {
			return fail("not a vector")
		}
		return obj.Int(int64(len(recv.Obj().Elems))), nil
	case "_NewVec:", "_NewVec:Fill:":
		if len(args) < 1 || !wantInt(args[0]) || args[0].I() < 0 {
			return fail("bad size")
		}
		fill := obj.Nil()
		if len(args) > 1 {
			fill = args[1]
		}
		// The byte-budget fault is a real OutOfFuel error, not a
		// primitive failure: a guest's _IfFail: block must not be able
		// to swallow resource exhaustion.
		if berr := vm.chargeBytes(st, args[0].I()); berr != nil {
			return obj.Nil(), berr
		}
		st.Allocs++
		return obj.Obj(vm.newVector(int(args[0].I()), fill)), nil
	case "_Clone":
		if recv.K() != obj.KObj {
			return recv, nil
		}
		ro := recv.Obj()
		if berr := vm.chargeBytes(st, int64(len(ro.Fields)+len(ro.Elems))); berr != nil {
			return obj.Nil(), berr
		}
		st.Allocs++
		return obj.Obj(vm.cloneObject(ro)), nil
	case "_Print":
		fmt.Fprint(vm.Out, recv.String())
		return recv, nil
	case "_PrintLine":
		fmt.Fprintln(vm.Out, recv.String())
		return recv, nil
	}
	return fail("unknown primitive")
}
