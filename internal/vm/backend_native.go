// The closure-threaded native backend: the top compilation tier
// (core.TierNative) lowers assembled Code — fused superinstructions
// included — into an array of directly-called Go closures, one per
// instruction, with branch targets as array indices. This is the
// classic tiered-JIT top tier realized in pure Go: instead of decoding
// Instr fields through a 30-way switch on every dispatch, each closure
// captured its operands at lowering time and the driver's loop is just
// charge-accounting plus one indirect call.
//
// The backend is a host-speed change only. The contract — pinned by
// the native differential oracle (native_differential_test.go and the
// in-package parity tests at the repo root) — is that every modelled
// quantity is bit-identical to the switch interpreter:
//
//   - the driver replicates runFast's per-instruction prologue exactly
//     (Instrs += N, budget poll against pollAt, Cycles += Cost plus the
//     InstrExtra surcharge), so budget faults fire at the same
//     instruction at every PollEvery stride;
//   - fused closures run their constituents in order and uncharge the
//     unexecuted tail on an early fault or overflow branch, exactly as
//     the fused switch cases do;
//   - faults build the same RuntimeError kinds and messages, and the
//     driver appends the same Self-level backtrace frames;
//   - dynamic behavior (sends with IC/PIC feedback, primitives, block
//     creation with frame escape, non-local returns via the nlr panic,
//     hotness counting on invocations and backedges) reuses the same
//     helpers the interpreter calls.
//
// KEEP IN SYNC with runFast/runTraced (vm.go): a semantic change to
// any interpreter case must be mirrored in the corresponding lowering
// here; the differential suite fails loudly when they drift.
package vm

import (
	"fmt"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// nativeOp executes one lowered instruction against a frame. The
// returned pc is the next instruction index for branches, or one of
// the sentinels below. On a non-nil error a positive pc reports the
// faulting instruction (segment closures fault mid-run); zero means
// "the pc the driver dispatched", which single-instruction closures
// use — the two coincide when the dispatched pc is 0; nPushed means the
// closure pushed the backtrace frame itself (a fault in the tail of a
// superinstruction, a failed poll inside a segment).
type nativeOp func(vm *VM, fr *frame) (int, error)

const (
	// nFall falls through to pc+1 (straight-line instructions).
	nFall = -1
	// nRet returns from the frame; the value travels in vm.nret.
	nRet = -2
	// nPushed accompanies an error whose frame is already on the trace.
	nPushed = -3
)

// nativeInstr pairs one closure with the accounting the driver charges
// before dispatch, copied out of the Instr so the hot loop touches one
// small struct per instruction.
type nativeInstr struct {
	op   nativeOp
	cost int64
	n    int64
}

// nativeCode is the closure-threaded form of a Code's instruction
// stream, indexed by the same pcs as Instrs.
type nativeCode struct {
	ops []nativeInstr
}

// HasNative reports whether c carries a native lowering (i.e. run will
// use the closure-threaded driver).
func (c *Code) HasNative() bool { return c.native != nil }

// PrepareNative lowers c's assembled instruction stream into
// closure-threaded form. Idempotent; called by the pipeline's assemble
// pass when the tier-resolved Config selects the native backend, after
// branch fixups and superinstruction fusion have finalized the stream.
// An unsupported opcode fails the lowering — and thereby the
// compilation, which the degraded retry or the promotion flight's
// keep-old-tier path contains — rather than producing code that could
// diverge from the interpreter.
func PrepareNative(c *Code) error {
	if c.native != nil {
		return nil
	}
	base := make([]nativeInstr, len(c.Instrs))
	linear := make([]bool, len(c.Instrs))
	for pc := range c.Instrs {
		in := &c.Instrs[pc]
		op, lin, err := lowerInstr(c, pc, in)
		if err != nil {
			return err
		}
		base[pc] = nativeInstr{op: op, cost: in.Cost, n: int64(in.N)}
		linear[pc] = lin
	}

	// Segment pass: at every pc that begins a straight-line run of two
	// or more linear instructions (ops whose only successful outcome is
	// fall-through), install a segment closure that executes the whole
	// run in one dispatch, charging each constituent exactly as the
	// driver would. Every pc keeps a valid entry — branches landing
	// mid-run execute the individual closures — and runs overlapping a
	// jump target re-segment from the target itself, since a segment is
	// built at every linear pc whose successor is also linear.
	nc := &nativeCode{ops: make([]nativeInstr, len(c.Instrs))}
	copy(nc.ops, base)
	for pc := range base {
		end := pc
		for end < len(base) && linear[end] {
			end++
		}
		if end-pc >= 2 {
			nc.ops[pc].op = makeSegment(c, base[pc:end], pc)
		}
	}
	c.native = nc
	return nil
}

// makeSegment fuses a straight-line run of linear instructions into
// one closure. The driver has already charged seg[0] when the closure
// runs; the closure charges the rest one instruction at a time —
// modelled count, budget poll, cycle cost, overhead surcharge, in the
// driver's exact order — so budget faults still fire at the identical
// instruction at every poll stride. On success it returns the pc after
// the run; on a fault, the faulting constituent's pc (for the
// backtrace).
func makeSegment(c *Code, run []nativeInstr, start int) nativeOp {
	seg := make([]nativeInstr, len(run))
	copy(seg, run)
	return func(vm *VM, fr *frame) (int, error) {
		if next, err := seg[0].op(vm, fr); err != nil {
			return faultPC(next, start), err
		} else if next != nFall {
			return next, nil // linear ops never branch; defensive
		}
		st := &vm.Stats
		extra := vm.InstrExtra
		for j := 1; j < len(seg); j++ {
			ni := &seg[j]
			st.Instrs += ni.n
			if st.Instrs >= vm.pollAt {
				if perr := vm.poll(st, c, start+j); perr != nil {
					return nPushed, perr
				}
			}
			st.Cycles += ni.cost
			if extra != 0 {
				st.Cycles += extra * ni.n
			}
			next, err := ni.op(vm, fr)
			if err != nil {
				return faultPC(next, start+j), err
			}
			if next != nFall {
				return next, nil
			}
		}
		return start + len(seg), nil
	}
}

// faultPC is what a segment reports for a constituent's error: nPushed
// stays, anything else becomes the constituent's pc.
func faultPC(next, pc int) int {
	if next == nPushed {
		return nPushed
	}
	return pc
}

// tailFault is how a superinstruction's closure reports an error raised
// by its tail constituent sub: it pushes the frame, which the driver
// would put at the head.
func tailFault(err error, c *Code, pc int, sub *Instr) (int, error) {
	pushFrame(err, c, pc, c.Instrs[pc].tailLen(sub))
	return nPushed, err
}

// runNative is the closure-threaded driver, the native backend's
// counterpart of runFast. The prologue per dispatch is byte-for-byte
// the interpreter's: modelled-instruction count, cooperative budget
// poll, static cycle charge, per-instruction overhead surcharge.
func (vm *VM) runNative(code *Code, fr *frame, pc int) (obj.Value, error) {
	st := &vm.Stats
	extra := vm.InstrExtra
	ops := code.native.ops
	for pc >= 0 && pc < len(ops) {
		ni := &ops[pc]
		st.Instrs += ni.n
		if st.Instrs >= vm.pollAt {
			if perr := vm.poll(st, code, pc); perr != nil {
				return obj.Nil(), perr
			}
		}
		st.Cycles += ni.cost
		if extra != 0 {
			st.Cycles += extra * ni.n
		}
		next, oerr := ni.op(vm, fr)
		if oerr != nil {
			if next == nPushed {
				return obj.Nil(), oerr
			}
			if next > 0 {
				pc = next // segment closures report the faulting constituent
			}
			return fault(oerr, code, pc)
		}
		if next == nFall {
			pc++
			continue
		}
		if next >= 0 {
			pc = next
			continue
		}
		return vm.nret, nil
	}
	// Falling off the end returns self (defensive; the compiler always
	// emits Return) — as in runFast.
	if len(fr.regs) > RegSelf {
		return fr.regs[RegSelf], nil
	}
	return obj.Nil(), nil
}

// lowerInstr builds the closure for one instruction and reports
// whether it is linear — eligible to be a segment constituent.
func lowerInstr(c *Code, pc int, in *Instr) (nativeOp, bool, error) {
	op, err := lowerInstrOp(c, pc, in)
	if err != nil {
		return nil, false, err
	}
	return op, isLinear(in), nil
}

// isLinear reports whether the lowered closure's only successful
// outcome is fall-through, which is what lets the segment pass run it
// mid-segment without a branch check mattering. Anything that can
// branch (jumps, comparisons, type tests, checked arithmetic and every
// fused superinstruction with a branch constituent), returns from the
// frame, unwinds (NLReturn), or always faults (Fail) stays out.
func isLinear(in *Instr) bool {
	switch in.Op {
	case ir.Const, ir.Move, ir.LoadF, ir.StoreF, ir.LoadE, ir.StoreE,
		ir.VecLen, ir.NewVec, ir.CloneOp, ir.Send, ir.Call, ir.PrimOp,
		ir.MkBlk, ir.LoadUp, ir.StoreUp, opMoveMove:
		return true
	case ir.Arith:
		// Only the unchecked add/sub/mul specializations never branch:
		// checked arithmetic branches to its overflow handler, and the
		// generic helper owns the branch decision for the other kinds.
		return !in.Checked && (in.AOp == ir.Add || in.AOp == ir.Sub || in.AOp == ir.Mul)
	}
	return false
}

// lowerInstrOp builds the closure for one instruction. Operands are
// captured into the closure at lowering time; branch targets are final
// (fixups and fusion ran before PrepareNative). Pointer captures of
// the Instr itself (sends, primitives, block creation, vector/clone
// construction) are safe: the Instrs slice is immutable once the Code
// is published.
func lowerInstrOp(c *Code, pc int, in *Instr) (nativeOp, error) {
	switch in.Op {
	case opJmp:
		t := in.T
		if t <= pc {
			// Backward jump: a loop backedge charges hotness exactly as
			// the interpreter does (only while an OnHot hook is armed).
			return func(vm *VM, fr *frame) (int, error) {
				if vm.OnHot != nil {
					vm.noteBackedge(c)
				}
				return t, nil
			}, nil
		}
		return func(vm *VM, fr *frame) (int, error) { return t, nil }, nil

	case ir.Const:
		dst, v := in.Dst, in.Val
		return func(vm *VM, fr *frame) (int, error) {
			fr.regs[dst] = v
			return nFall, nil
		}, nil

	case ir.Move:
		dst, a := in.Dst, in.A
		return func(vm *VM, fr *frame) (int, error) {
			fr.regs[dst] = fr.regs[a]
			return nFall, nil
		}, nil

	case ir.LoadF:
		dst, a, idx := in.Dst, in.A, in.Index
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil || idx >= len(o.Fields) {
				return 0, errBadField(c, "access")
			}
			if vm.cowEp != 0 && o.Ep == vm.cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[dst] = o.Fields[idx]
			return nFall, nil
		}, nil

	case ir.StoreF:
		a, b, idx := in.A, in.B, in.Index
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil || idx >= len(o.Fields) {
				return 0, errBadField(c, "store")
			}
			if o.Ep != vm.curEp {
				o = vm.storeSlow(o, fr.regs[b])
			}
			if vm.World.ShapeTracking {
				vm.World.NoteFieldStore(o.Map, idx, fr.regs[b])
			}
			o.Fields[idx] = fr.regs[b]
			return nFall, nil
		}, nil

	case ir.LoadE:
		dst, a, b := in.Dst, in.A, in.B
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil {
				return 0, errElemNonObject(c, "load")
			}
			i := fr.regs[b].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return 0, errElemOOB(c, "load", i, len(o.Elems))
			}
			if vm.cowEp != 0 && o.Ep == vm.cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[dst] = o.Elems[i]
			return nFall, nil
		}, nil

	case ir.StoreE:
		a, b, cr := in.A, in.B, in.C
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil {
				return 0, errElemNonObject(c, "store")
			}
			i := fr.regs[b].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return 0, errElemOOB(c, "store", i, len(o.Elems))
			}
			if o.Ep != vm.curEp {
				o = vm.storeSlow(o, fr.regs[cr])
			}
			o.Elems[i] = fr.regs[cr]
			return nFall, nil
		}, nil

	case ir.VecLen:
		dst, a := in.Dst, in.A
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil {
				return 0, &RuntimeError{Msg: "vecLen of non-vector"}
			}
			fr.regs[dst] = obj.Int(int64(len(o.Elems)))
			return nFall, nil
		}, nil

	case ir.NewVec:
		return func(vm *VM, fr *frame) (int, error) {
			if verr := vm.makeVector(&vm.Stats, fr, in); verr != nil {
				return 0, verr
			}
			return nFall, nil
		}, nil

	case ir.CloneOp:
		return func(vm *VM, fr *frame) (int, error) {
			if cerr := vm.makeClone(&vm.Stats, fr, in); cerr != nil {
				return 0, cerr
			}
			return nFall, nil
		}, nil

	case ir.Arith:
		return lowerArith(in), nil

	case ir.CmpBr:
		return lowerCmpBr(in), nil

	case ir.TypeTest:
		a, tm, tpc, fpc := in.A, in.TestMap, in.T, in.F
		return func(vm *VM, fr *frame) (int, error) {
			vm.Stats.TypeTests++
			if vm.World.MapOf(fr.regs[a]) == tm {
				return tpc, nil
			}
			return fpc, nil
		}, nil

	case ir.Send:
		dst := in.Dst
		hasDst := dst != ir.NoReg
		return func(vm *VM, fr *frame) (int, error) {
			v, serr := vm.execSend(in, fr, c)
			if serr != nil {
				return 0, serr
			}
			if hasDst {
				fr.regs[dst] = v
			}
			return nFall, nil
		}, nil

	case ir.Call:
		dst := in.Dst
		hasDst := dst != ir.NoReg
		return func(vm *VM, fr *frame) (int, error) {
			v, cerr := vm.execCall(in, fr, c)
			if cerr != nil {
				return 0, cerr
			}
			if hasDst {
				fr.regs[dst] = v
			}
			return nFall, nil
		}, nil

	case ir.PrimOp:
		dst := in.Dst
		hasDst := dst != ir.NoReg
		return func(vm *VM, fr *frame) (int, error) {
			v, perr := vm.execPrim(in, fr)
			if perr != nil {
				return 0, perr
			}
			if hasDst {
				fr.regs[dst] = v
			}
			return nFall, nil
		}, nil

	case ir.MkBlk:
		return func(vm *VM, fr *frame) (int, error) {
			vm.makeBlock(&vm.Stats, fr, in)
			return nFall, nil
		}, nil

	case ir.Fail:
		return func(vm *VM, fr *frame) (int, error) {
			return 0, failError(c, fr, in)
		}, nil

	case ir.Return:
		a := in.A
		return func(vm *VM, fr *frame) (int, error) {
			vm.nret = fr.regs[a]
			return nRet, nil
		}, nil

	case ir.NLReturn:
		a := in.A
		return func(vm *VM, fr *frame) (int, error) {
			if fr.home.fr == nil || fr.home.fr.dead {
				return 0, &RuntimeError{Msg: "non-local return from dead home frame"}
			}
			panic(nlr{ref: fr.home, val: fr.regs[a]})
		}, nil

	case ir.LoadUp:
		dst, sel := in.Dst, in.Sel
		return func(vm *VM, fr *frame) (int, error) {
			p := fr.up[sel]
			if p == nil {
				return 0, &RuntimeError{Msg: "unbound up-level variable " + sel}
			}
			fr.regs[dst] = *p
			return nFall, nil
		}, nil

	case ir.StoreUp:
		a, sel := in.A, in.Sel
		return func(vm *VM, fr *frame) (int, error) {
			p := fr.up[sel]
			if p == nil {
				return 0, &RuntimeError{Msg: "unbound up-level variable " + sel}
			}
			*p = fr.regs[a]
			return nFall, nil
		}, nil

	// Superinstructions (fuse.go): each closure executes the
	// constituents exactly in order, with the same uncharge of the
	// unexecuted tail on an early fault or overflow branch as the
	// fused interpreter cases.
	case opMoveMove:
		f := in.Fused
		dst, a, fdst, fa := in.Dst, in.A, f.Dst, f.A
		return func(vm *VM, fr *frame) (int, error) {
			fr.regs[dst] = fr.regs[a]
			fr.regs[fdst] = fr.regs[fa]
			return nFall, nil
		}, nil

	case opConstArith:
		f := in.Fused
		dst, v, fF := in.Dst, in.Val, f.F
		return func(vm *VM, fr *frame) (int, error) {
			fr.regs[dst] = v
			br, aerr := arithVal(&vm.Stats, f, fr)
			if aerr != nil {
				return tailFault(aerr, c, pc, f)
			}
			if br {
				return fF, nil
			}
			return nFall, nil
		}, nil

	case opLoadFArith:
		f := in.Fused
		dst, a, idx, fF := in.Dst, in.A, in.Index, f.F
		return func(vm *VM, fr *frame) (int, error) {
			st := &vm.Stats
			o := fr.regs[a].Obj()
			if o == nil || idx >= len(o.Fields) {
				vm.uncharge(st, f)
				return 0, errBadField(c, "access")
			}
			if vm.cowEp != 0 && o.Ep == vm.cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[dst] = o.Fields[idx]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return tailFault(aerr, c, pc, f)
			}
			if br {
				return fF, nil
			}
			return nFall, nil
		}, nil

	case opLoadEArith:
		f := in.Fused
		dst, a, b, fF := in.Dst, in.A, in.B, f.F
		return func(vm *VM, fr *frame) (int, error) {
			st := &vm.Stats
			o := fr.regs[a].Obj()
			if o == nil {
				vm.uncharge(st, f)
				return 0, errElemNonObject(c, "load")
			}
			i := fr.regs[b].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				vm.uncharge(st, f)
				return 0, errElemOOB(c, "load", i, len(o.Elems))
			}
			if vm.cowEp != 0 && o.Ep == vm.cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[dst] = o.Elems[i]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return tailFault(aerr, c, pc, f)
			}
			if br {
				return fF, nil
			}
			return nFall, nil
		}, nil

	case opArithCmpBr:
		f := in.Fused
		inF, fT, fF := in.F, f.T, f.F
		return func(vm *VM, fr *frame) (int, error) {
			st := &vm.Stats
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return 0, aerr
			}
			if br {
				vm.uncharge(st, f)
				return inF, nil
			}
			if f.bounds {
				st.BoundsChecks++
			}
			if cmpTaken(f.COp, fr.regs[f.A], fr.regs[f.B]) {
				return fT, nil
			}
			return fF, nil
		}, nil

	case opArithJmp:
		f := in.Fused
		inF, fT := in.F, f.T
		back := f.T <= pc
		return func(vm *VM, fr *frame) (int, error) {
			st := &vm.Stats
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return 0, aerr
			}
			if br {
				vm.uncharge(st, f)
				return inF, nil
			}
			if back && vm.OnHot != nil {
				vm.noteBackedge(c)
			}
			return fT, nil
		}, nil

	case opConstArithCmpBr:
		f := in.Fused // the Arith
		g := f.Fused  // the CmpBr
		dst, v, fF := in.Dst, in.Val, f.F
		gT, gF := g.T, g.F
		return func(vm *VM, fr *frame) (int, error) {
			st := &vm.Stats
			fr.regs[dst] = v
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				vm.uncharge(st, g)
				return tailFault(aerr, c, pc, f)
			}
			if br {
				vm.uncharge(st, g)
				return fF, nil
			}
			if g.bounds {
				st.BoundsChecks++
			}
			if cmpTaken(g.COp, fr.regs[g.A], fr.regs[g.B]) {
				return gT, nil
			}
			return gF, nil
		}, nil

	case opVecLenCmpBr:
		f := in.Fused
		dst, a, fT, fF := in.Dst, in.A, f.T, f.F
		return func(vm *VM, fr *frame) (int, error) {
			o := fr.regs[a].Obj()
			if o == nil {
				vm.uncharge(&vm.Stats, f)
				return 0, &RuntimeError{Msg: "vecLen of non-vector"}
			}
			fr.regs[dst] = obj.Int(int64(len(o.Elems)))
			if f.bounds {
				vm.Stats.BoundsChecks++
			}
			if cmpTaken(f.COp, fr.regs[f.A], fr.regs[f.B]) {
				return fT, nil
			}
			return fF, nil
		}, nil
	}
	return nil, fmt.Errorf("native lowering: unsupported opcode %s at pc %d", in.Op, pc)
}

// lowerArith specializes the common add/sub/mul shapes (checked and
// unchecked) into branch-free-on-success closures; the remaining
// arithmetic kinds go through the shared arithVal helper, which the
// interpreter uses for all of them. The checked specializations copy
// arithVal's exact order: compute, count the overflow check, then
// range-test — a checked div/mod by zero must branch away before the
// OvflChecks counter moves, so div/mod stay on the helper.
func lowerArith(in *Instr) nativeOp {
	dst, a, b, fpc := in.Dst, in.A, in.B, in.F
	if !in.Checked {
		switch in.AOp {
		case ir.Add:
			return func(vm *VM, fr *frame) (int, error) {
				fr.regs[dst] = obj.Int(fr.regs[a].I() + fr.regs[b].I())
				return nFall, nil
			}
		case ir.Sub:
			return func(vm *VM, fr *frame) (int, error) {
				fr.regs[dst] = obj.Int(fr.regs[a].I() - fr.regs[b].I())
				return nFall, nil
			}
		case ir.Mul:
			return func(vm *VM, fr *frame) (int, error) {
				fr.regs[dst] = obj.Int(fr.regs[a].I() * fr.regs[b].I())
				return nFall, nil
			}
		}
	} else {
		switch in.AOp {
		case ir.Add:
			return func(vm *VM, fr *frame) (int, error) {
				v := fr.regs[a].I() + fr.regs[b].I()
				vm.Stats.OvflChecks++
				if v < obj.MinSmallInt || v > obj.MaxSmallInt {
					return fpc, nil
				}
				fr.regs[dst] = obj.Int(v)
				return nFall, nil
			}
		case ir.Sub:
			return func(vm *VM, fr *frame) (int, error) {
				v := fr.regs[a].I() - fr.regs[b].I()
				vm.Stats.OvflChecks++
				if v < obj.MinSmallInt || v > obj.MaxSmallInt {
					return fpc, nil
				}
				fr.regs[dst] = obj.Int(v)
				return nFall, nil
			}
		case ir.Mul:
			return func(vm *VM, fr *frame) (int, error) {
				v := fr.regs[a].I() * fr.regs[b].I()
				vm.Stats.OvflChecks++
				if v < obj.MinSmallInt || v > obj.MaxSmallInt {
					return fpc, nil
				}
				fr.regs[dst] = obj.Int(v)
				return nFall, nil
			}
		}
	}
	return func(vm *VM, fr *frame) (int, error) {
		br, aerr := arithVal(&vm.Stats, in, fr)
		if aerr != nil {
			return 0, aerr
		}
		if br {
			return fpc, nil
		}
		return nFall, nil
	}
}

// lowerCmpBr specializes the integer comparisons; EQ/NE (which compare
// full values) and bounds-check branches (which count) go through the
// shared cmpTaken helper.
func lowerCmpBr(in *Instr) nativeOp {
	a, b, tpc, fpc := in.A, in.B, in.T, in.F
	if !in.bounds {
		switch in.COp {
		case ir.LT:
			return func(vm *VM, fr *frame) (int, error) {
				if fr.regs[a].I() < fr.regs[b].I() {
					return tpc, nil
				}
				return fpc, nil
			}
		case ir.LE:
			return func(vm *VM, fr *frame) (int, error) {
				if fr.regs[a].I() <= fr.regs[b].I() {
					return tpc, nil
				}
				return fpc, nil
			}
		case ir.GT:
			return func(vm *VM, fr *frame) (int, error) {
				if fr.regs[a].I() > fr.regs[b].I() {
					return tpc, nil
				}
				return fpc, nil
			}
		case ir.GE:
			return func(vm *VM, fr *frame) (int, error) {
				if fr.regs[a].I() >= fr.regs[b].I() {
					return tpc, nil
				}
				return fpc, nil
			}
		}
	}
	cop, bounds := in.COp, in.bounds
	return func(vm *VM, fr *frame) (int, error) {
		if bounds {
			vm.Stats.BoundsChecks++
		}
		if cmpTaken(cop, fr.regs[a], fr.regs[b]) {
			return tpc, nil
		}
		return fpc, nil
	}
}
