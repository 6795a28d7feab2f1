package vm_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/codecache"
	"selfgo/internal/core"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
	"selfgo/internal/vm"
)

// kindOf extracts the RuntimeError kind, failing the test when err is
// not a RuntimeError at all.
func kindOf(t *testing.T, err error) vm.ErrKind {
	t.Helper()
	var re *vm.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *RuntimeError", err, err)
	}
	return re.Kind
}

// TestSharedCompilePanicContained: eight VMs sharing one code cache all
// request a method whose compile callback panics. Every caller must get
// a KindInternal RuntimeError — not a crashed process, not a deadlock.
func TestSharedCompilePanicContained(t *testing.T) {
	w := obj.NewWorld()
	for _, s := range []string{prelude.Source, `broken = ( 1 + 2 ).`} {
		f, err := parser.ParseFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Load(f); err != nil {
			t.Fatal(err)
		}
	}
	w.Finalize()

	shared := codecache.New[*vm.Code]()
	cc := core.New(w, core.NewSELF)
	newVM := func() *vm.VM {
		m := &vm.VM{World: w, Customize: true, Cache: shared}
		m.CompileMethod = func(meth *obj.Method, rmap *obj.Map) (*vm.Code, error) {
			if meth.Sel == "broken" {
				panic("optimizer bug in " + meth.Sel)
			}
			g, _, err := cc.CompileMethod(meth, rmap)
			if err != nil {
				return nil, err
			}
			return vm.Assemble(g), nil
		}
		m.CompileBlock = func(b *ast.Block, upNames []string) (*vm.Code, error) {
			g, _, err := cc.CompileBlock(b, upNames)
			if err != nil {
				return nil, err
			}
			c := vm.Assemble(g)
			c.IsBlock = true
			return c, nil
		}
		return m
	}

	r, ok := obj.Lookup(w.Lobby.Map, "broken")
	if !ok {
		t.Fatal("no broken method")
	}

	const n = 8
	errs := make([]error, n)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		m := newVM()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			_, errs[i] = m.RunMethod(r.Slot.Meth, obj.Obj(w.Lobby))
		}()
	}
	close(gate)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: VMs still blocked on the panicked compile flight")
	}

	for i, err := range errs {
		if err == nil {
			t.Fatalf("VM %d: panicking compile returned no error", i)
		}
		if k := kindOf(t, err); k != vm.KindInternal {
			t.Fatalf("VM %d: kind = %v, want KindInternal (err: %v)", i, k, err)
		}
	}
}

// TestRunMethodArityMismatch: the public entry validates argument count
// instead of silently dropping extras or reading garbage.
func TestRunMethodArityMismatch(t *testing.T) {
	h := newHarness(t, core.NewSELF, `addOne: n = ( n + 1 ).`)
	r, _ := obj.Lookup(h.w.Lobby.Map, "addOne:")
	for _, args := range [][]obj.Value{
		{},
		{obj.Int(1), obj.Int(2)},
	} {
		_, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), args...)
		if err == nil {
			t.Fatalf("%d args accepted by a 1-parameter method", len(args))
		}
		if !strings.Contains(err.Error(), "argument") {
			t.Fatalf("arity error %q does not mention arguments", err)
		}
	}
	// The correct arity still works.
	v, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), obj.Int(41))
	if err != nil || v.I() != 42 {
		t.Fatalf("addOne: 41 = (%v, %v), want 42", v, err)
	}
}

// TestNegativeNewVecUnchecked: under the static-ideal config the _NewVec
// primitive inlines without its size guard; a negative size used to
// reach Go's make and panic the process. It must surface as a
// RuntimeError instead.
func TestNegativeNewVecUnchecked(t *testing.T) {
	h := newHarness(t, core.StaticIdealC, `go: n = ( _NewVec: n ).`)
	r, _ := obj.Lookup(h.w.Lobby.Map, "go:")
	_, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), obj.Int(-5))
	if err == nil {
		t.Fatal("negative _NewVec: succeeded on the unchecked path")
	}
	var re *vm.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("negative _NewVec: error %T is not a RuntimeError", err)
	}
}

// TestBudgetPollPreservesCycles: runs with and without an (unhit)
// budget must account identical modelled cycles — the poll is free in
// the §6.1 cost model.
func TestBudgetPollPreservesCycles(t *testing.T) {
	src := `loop: n = ( |s <- 0| 1 upTo: n Do: [ :i | s: s + i ]. s ).`

	run := func(budget vm.Budget, ctx context.Context) vm.RunStats {
		h := newHarness(t, core.NewSELF, src)
		h.vm.Budget = budget
		r, _ := obj.Lookup(h.w.Lobby.Map, "loop:")
		var err error
		if ctx != nil {
			_, err = h.vm.RunMethodCtx(ctx, r.Slot.Meth, obj.Obj(h.w.Lobby), obj.Int(5000))
		} else {
			_, err = h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), obj.Int(5000))
		}
		if err != nil {
			t.Fatal(err)
		}
		return h.vm.Stats
	}

	plain := run(vm.Budget{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	budgeted := run(vm.Budget{MaxInstrs: 1 << 40, MaxDepth: 1 << 20, MaxAllocs: 1 << 40}, ctx)
	if plain.Cycles != budgeted.Cycles || plain.Instrs != budgeted.Instrs {
		t.Fatalf("budget polling changed the cost model: plain (cycles=%d instrs=%d) vs budgeted (cycles=%d instrs=%d)",
			plain.Cycles, plain.Instrs, budgeted.Cycles, budgeted.Instrs)
	}
}
