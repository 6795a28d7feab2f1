package vm

import (
	"testing"
	"unsafe"

	"selfgo/internal/obj"
)

// TestGetPutFrame: the freelist unit contract — zeroing on reuse,
// escaped frames dropped, growth by size class, bounded by bytes.
func TestGetPutFrame(t *testing.T) {
	vm := &VM{}

	fr := vm.getFrame(10)
	for i := range fr.regs {
		fr.regs[i] = obj.Int(int64(i + 1))
	}
	fr.dead = true
	vm.putFrame(fr)
	if len(vm.freeFrames) != 1 {
		t.Fatalf("pool size = %d after put, want 1", len(vm.freeFrames))
	}

	// Reuse at a smaller size: every visible register must be zero, and
	// the frame flags must be reset.
	re := vm.getFrame(5)
	if re != fr {
		t.Fatalf("expected the pooled frame back")
	}
	if re.dead || re.escaped || re.cl != nil || re.home.fr != nil {
		t.Fatalf("pooled frame not reset: %+v", re)
	}
	for i, v := range re.regs {
		if !v.Eq(obj.Nil()) {
			t.Fatalf("stale register %d = %s after reuse", i, v)
		}
	}
	// Growing it back to full size must expose zeroes, not the old
	// values hidden past the shortened length.
	re.dead = true
	vm.putFrame(re)
	re2 := vm.getFrame(10)
	for i, v := range re2.regs {
		if !v.Eq(obj.Nil()) {
			t.Fatalf("stale register %d = %s after regrow", i, v)
		}
	}

	// Escaped frames never pool.
	re2.escaped = true
	vm.putFrame(re2)
	if len(vm.freeFrames) != 0 {
		t.Fatalf("escaped frame entered the pool")
	}

	// No register file is too big to pool, and one that is too small for
	// its next activation grows to a size class, so repeated wide calls
	// settle on one file instead of reallocating every time.
	small := vm.getFrame(4)
	vm.putFrame(small)
	big := vm.getFrame(1000)
	if big != small || cap(big.regs) != 1024 {
		t.Fatalf("pooled frame regrown to cap %d (same frame: %v), want the same frame at 1024", cap(big.regs), big == small)
	}
	allocs := vm.Frames.Allocs
	for i := 0; i < 100; i++ {
		vm.putFrame(big)
		if again := vm.getFrame(999); again != big {
			t.Fatalf("wide frame left the pool")
		}
	}
	if vm.Frames.Allocs != allocs || vm.Frames.Reuses < 100 {
		t.Fatalf("wide calls allocated: %+v (allocs were %d)", vm.Frames, allocs)
	}
	if vm.Frames.PoolBytes != 0 {
		t.Fatalf("empty pool holds %d bytes", vm.Frames.PoolBytes)
	}

	// The pool is bounded by the bytes it holds, whatever the frame size.
	for _, regs := range []int{4, 1000} {
		vm.freeFrames, vm.Frames = nil, FrameStats{}
		for i := 0; i < 3*maxPoolBytes/(regs*int(obj.ValueBytes)); i++ {
			vm.putFrame(&frame{regs: make([]obj.Value, regs)})
		}
		held := int64(len(vm.freeFrames)) * int64(regs) * obj.ValueBytes
		if held != vm.Frames.PoolBytes || held > maxPoolBytes || held < maxPoolBytes-int64(regs)*obj.ValueBytes {
			t.Fatalf("%d-register frames: pool holds %d bytes (counted %d), want just under %d",
				regs, held, vm.Frames.PoolBytes, maxPoolBytes)
		}
	}
}

// TestFrameSizeClass: an activation frame stays in the 64-byte size
// class — a block frame holds its closure, not a slice of its cells.
func TestFrameSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(frame{}); size > 64 {
		t.Fatalf("frame is %d bytes, want at most 64", size)
	}
}
