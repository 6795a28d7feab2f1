package vm_test

import (
	"strings"
	"testing"

	"selfgo/internal/core"
	"selfgo/internal/obj"
)

const poolSrc = `
down: n = ( (n = 0) ifTrue: [ 0 ] False: [ down: n - 1 ] ).
fill: n = ( ((((n + 1) + 2) + 3) + 4) + 5 ).
leak = ( | x. y. z | z ).
mkCounter = ( | x <- 1 | [ :v | x: x + v. x ] ).
mkRet = ( [ ^ 5 ] ).
callBlock: b = ( b value ).
callBlock: b With: v = ( b value: v ).
`

// TestFramePoolZeroedOnReuse: deep recursion (filling the pool with
// frames whose registers held live values) followed by wide shallow
// calls must never observe stale registers — uninitialized locals stay
// nil. Run under -race in CI. ST80 keeps user sends out of line, so
// every recursion level is a real frame; NewSELF exercises the inlined
// shape.
func TestFramePoolZeroedOnReuse(t *testing.T) {
	for _, cfg := range []core.Config{core.ST80, core.NewSELF} {
		h := newHarness(t, cfg, poolSrc)
		if v := h.call(t, "down:", obj.Int(2000)); v.I() != 0 {
			t.Fatalf("%s: down: 2000 = %s, want 0", cfg.Name, v)
		}
		// fill: leaves non-nil temporaries in its frame registers.
		for i := 0; i < 50; i++ {
			if v := h.call(t, "fill:", obj.Int(int64(i))); v.I() != int64(i+15) {
				t.Fatalf("%s: fill: %d = %s", cfg.Name, i, v)
			}
			if v := h.call(t, "leak"); !v.Eq(obj.Nil()) {
				t.Fatalf("%s: uninitialized local read stale value %s from a reused frame", cfg.Name, v)
			}
		}
	}
}

// TestEscapedFramesSurvivePooling: a closure capturing a method-frame
// register by reference keeps working after the method returns and
// after the pool has recycled many other frames — the escaped frame
// must have been exempted.
func TestEscapedFramesSurvivePooling(t *testing.T) {
	h := newHarness(t, core.ST80, poolSrc)
	counter := h.call(t, "mkCounter")
	if counter.K() != obj.KBlock {
		t.Fatalf("mkCounter returned %s, not a block", counter)
	}
	// Churn the pool so a recycled mkCounter frame would be reused and
	// clobbered.
	h.call(t, "down:", obj.Int(200))
	if v := h.call(t, "callBlock:With:", counter, obj.Int(5)); v.I() != 6 {
		t.Fatalf("counter(5) = %s, want 6", v)
	}
	h.call(t, "down:", obj.Int(200))
	if v := h.call(t, "callBlock:With:", counter, obj.Int(10)); v.I() != 16 {
		t.Fatalf("counter(10) = %s, want 16 (captured state lost)", v)
	}
}

// TestDeadHomeStillDetectedWithPooling: a non-local return whose home
// frame has exited must still be caught. Frame identity is the
// detection mechanism, so a recycled home frame (dead=false again)
// would defeat it — escaped frames staying out of the pool is what
// keeps this sound.
func TestDeadHomeStillDetectedWithPooling(t *testing.T) {
	h := newHarness(t, core.ST80, poolSrc)
	blk := h.call(t, "mkRet")
	if blk.K() != obj.KBlock {
		t.Fatalf("mkRet returned %s, not a block", blk)
	}
	// Churn: if mkRet's frame were pooled, these calls would recycle it
	// into a live-looking frame.
	h.call(t, "down:", obj.Int(200))
	r, _ := obj.Lookup(h.w.Lobby.Map, "callBlock:")
	_, err := h.vm.RunMethod(r.Slot.Meth, obj.Obj(h.w.Lobby), blk)
	if err == nil || !strings.Contains(err.Error(), "dead home") {
		t.Fatalf("non-local return from dead home: err = %v, want dead-home error", err)
	}
}
