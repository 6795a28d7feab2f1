package vm

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"selfgo/internal/obj"
)

// Budget bounds one execution (one RunMethod/RunMethodCtx call). Zero
// fields are unlimited. Instruction and allocation budgets are checked
// cooperatively every budgetPollInterval instructions; MaxDepth is
// checked at every activation. The checks consume no modelled cycles,
// so the §6.1 cost model is unchanged whether or not a budget is set.
type Budget struct {
	// MaxInstrs bounds executed instructions; exceeding it returns a
	// KindOutOfFuel error.
	MaxInstrs int64
	// MaxDepth bounds activation depth (tighter than the VM's own
	// limit); exceeding it returns a KindStackOverflow error.
	MaxDepth int
	// MaxAllocs bounds allocation operations (vectors, clones,
	// closures); exceeding it returns a KindOutOfFuel error.
	MaxAllocs int64
	// MaxBytes bounds the modelled bytes of vector and clone storage
	// (per-element, see RunStats.AllocBytes); exceeding it returns a
	// KindOutOfFuel error. Unlike the other axes this is checked at
	// the allocation site, before the storage is created: one huge
	// `_NewVec:` must fault instead of OOMing the host between polls.
	MaxBytes int64
	// PollEvery overrides the cooperative poll stride: how many
	// instructions run between budget/cancellation checks. Zero keeps
	// the default (budgetPollInterval, 1024). A server handling short
	// deadlines tightens it to bound cancellation latency; even a
	// 1-instruction stride charges zero modelled cost — the poll is
	// host work only — but costs host time, so small strides are for
	// latency-sensitive callers. Setting only PollEvery (no limits, no
	// context) arms the poll but every check passes.
	PollEvery int64
	// Deadline, when set, ends the run at the first poll at or past it
	// with the KindCancelled error an expired context gives: a host
	// that enforces a deadline per request reads the clock at each poll
	// instead of building a timer context per request.
	Deadline time.Time
}

// budgetPollInterval is how many instructions run between cooperative
// budget/cancellation checks. Small enough that a cancelled context or
// exhausted budget is noticed promptly, large enough that the poll is
// noise against the interpreter loop.
const budgetPollInterval = 1024

// RunMethodCtx executes meth like RunMethod, honoring ctx cancellation
// and deadline (checked cooperatively alongside the VM's Budget): a
// cancelled context surfaces as a KindCancelled RuntimeError.
func (vm *VM) RunMethodCtx(ctx context.Context, meth *obj.Method, recv obj.Value, args ...obj.Value) (obj.Value, error) {
	return vm.runMethod(ctx, meth, recv, args)
}

// startRun arms the cooperative poll for one execution: budgets are
// per-run, so the fuel and allocation baselines snapshot the current
// counters. Unbudgeted runs park the budget grid at MaxInt64, and the
// poll trigger with it — the per-instruction cost is then a single
// always-false comparison. A traced run parks the trigger at MinInt64
// instead, so every dispatch reaches poll and its trace line.
func (vm *VM) startRun(ctx context.Context) {
	vm.ctx = ctx
	vm.fuelStart = vm.Stats.Instrs
	vm.allocStart = vm.Stats.Allocs
	vm.bytesStart = vm.Stats.AllocBytes
	vm.curEp = vm.Arena.Epoch()
	vm.pollEvery = vm.Budget.PollEvery
	if vm.pollEvery <= 0 {
		vm.pollEvery = budgetPollInterval
	}
	// context.Background() has a nil Done channel: such a context can
	// never be cancelled, so it does not force polling on. A budget arms
	// the poll by itself, before Done (which may allocate) is asked.
	if vm.Budget != (Budget{}) || (ctx != nil && ctx.Done() != nil) {
		vm.budgetAt = vm.Stats.Instrs + vm.pollEvery
	} else {
		vm.budgetAt = math.MaxInt64
	}
	vm.pollAt = vm.budgetAt
	if vm.Trace != nil {
		vm.pollAt = math.MinInt64
	}
}

// poll is the cooperative budget and cancellation check, made by the
// run loop when the dispatch of code's entry at pc carries Instrs to
// or past pollAt; on a traced run that is every dispatch, and poll
// first writes the entry's trace line (a fused entry traces once, as
// its fused rendering, since it dispatches once). Budget polls sit on
// a grid — the stride apart, counted from the start of the run —
// whatever the dispatch granularity: an entry that stands for several
// modelled instructions is checked against the grid point it crossed,
// not against where it ended, so fused and unfused code run out of
// fuel at the same instruction, and the backtrace frame a failing poll
// pushes names that instruction. (The constituents before it have not
// run, as they would have unfused: RunStats after a budget fault are
// those of the dispatch boundary.)
func (vm *VM) poll(st *RunStats, code *Code, pc int) error {
	if vm.Trace != nil {
		fmt.Fprintf(vm.Trace, "%*s%s @%d: %s\n", vm.depth, "", code.Name, pc, code.render(&code.Instrs[pc]))
		if st.Instrs < vm.budgetAt {
			return nil
		}
	}
	stride := vm.pollEvery
	if stride <= 0 {
		// Defensive: a poll reached outside startRun (which always arms
		// the stride) must not degenerate into polling every instruction.
		stride = budgetPollInterval
	}
	at := vm.budgetAt
	vm.budgetAt = at + stride
	if vm.Trace == nil {
		vm.pollAt = vm.budgetAt
	}
	err := vm.overBudget(st, at)
	if err != nil {
		// The instruction that reached the grid point, counted back from
		// the entry's last; a head has absorbed N-1-tail ahead of itself.
		in := &code.Instrs[pc]
		tail := code.tailN(in)
		within := max(tail-int(st.Instrs-at), tail+1-int(in.N))
		pushFrame(err, code, pc, within)
	}
	return err
}

// overBudget checks the budgets against the run's counters, instrs
// standing for the instruction count, the deadline and the context.
func (vm *VM) overBudget(st *RunStats, instrs int64) error {
	b := &vm.Budget
	if b.MaxInstrs > 0 && instrs-vm.fuelStart > b.MaxInstrs {
		return &RuntimeError{Kind: KindOutOfFuel,
			Msg: fmt.Sprintf("out of fuel: instruction budget %d exhausted", b.MaxInstrs)}
	}
	if b.MaxAllocs > 0 && st.Allocs-vm.allocStart > b.MaxAllocs {
		return &RuntimeError{Kind: KindOutOfFuel,
			Msg: fmt.Sprintf("out of fuel: allocation budget %d exhausted", b.MaxAllocs)}
	}
	// MaxBytes is enforced at the allocation sites (chargeBytes); the
	// poll re-checks so a run that slipped past on an uncounted path
	// still faults at the next stride.
	if b.MaxBytes > 0 && st.AllocBytes-vm.bytesStart > b.MaxBytes {
		return &RuntimeError{Kind: KindOutOfFuel,
			Msg: fmt.Sprintf("out of fuel: byte budget %d exhausted", b.MaxBytes)}
	}
	if !b.Deadline.IsZero() && !time.Now().Before(b.Deadline) {
		return &RuntimeError{Kind: KindCancelled, Msg: "cancelled: " + context.DeadlineExceeded.Error()}
	}
	if vm.ctx != nil {
		if cerr := vm.ctx.Err(); cerr != nil {
			return &RuntimeError{Kind: KindCancelled, Msg: "cancelled: " + cerr.Error()}
		}
	}
	return nil
}

// depthLimit is the effective activation-depth bound for this run.
func (vm *VM) depthLimit() int {
	if b := vm.Budget.MaxDepth; b > 0 && b < maxDepth {
		return b
	}
	return maxDepth
}

// containPanic converts a Go panic that reached the public RunMethod
// boundary into an error: no guest program or VM/compiler bug may crash
// the host process. Non-local-return payloads that escape every frame
// are VM invariant violations and classify as internal too.
func containPanic(r any) error {
	if n, ok := r.(nlr); ok {
		return &RuntimeError{Kind: KindInternal,
			Msg: fmt.Sprintf("non-local return escaped all frames (value %s)", n.val)}
	}
	return &RuntimeError{Kind: KindInternal,
		Msg: fmt.Sprintf("internal VM panic: %v", r), GoStack: debug.Stack()}
}
