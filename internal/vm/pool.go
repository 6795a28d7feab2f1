package vm

import "selfgo/internal/obj"

// Frame pooling: invoke used to heap-allocate a register file per
// activation — one Go allocation per non-inlined send. A per-VM
// freelist removes that from the steady state. No synchronization: a
// VM is single-goroutine and frames never cross VMs.
//
// Correctness hinges on two rules:
//
//  1. Escaped frames are never pooled. A MkBlk pins its frame (captured
//     registers by address, the frame pointer as non-local-return
//     home), and the dead-home check compares frame identity — a
//     recycled home frame with dead=false would make a dead home look
//     live. makeBlock sets frame.escaped; putFrame drops such frames
//     for the garbage collector.
//  2. Reused register files are zeroed. A fresh `make` hands out zero
//     Values; getFrame clears the reused prefix so no activation can
//     observe a previous activation's registers.
//
// No frame is too big to pool: a register file too small for its next
// activation grows to a power-of-two size class, so a VM's frames
// converge on a few sizes, and what bounds the pool is the bytes it
// holds — deeper recursion than that spills to the allocator.
//
// Modelled Allocs accounting is untouched: it counts guest-level
// allocations (vectors, clones, closures), not Go frame allocations.
const (
	maxPoolBytes = 1 << 20
	minFrameRegs = 8 // the smallest size class
)

// FrameStats is the host-side cost of this VM's activations: register
// files allocated, register files reused from the pool, and the bytes
// the pool holds now. Not modelled quantities, hence not in RunStats.
type FrameStats struct {
	Allocs    int64 `json:"allocs"`
	Reuses    int64 `json:"reuses"`
	PoolBytes int64 `json:"pool_bytes"`
}

// getFrame returns a frame with a zeroed n-register file, reusing a
// pooled frame when there is one. Callers overwrite home, and a block
// frame's cl, unconditionally.
func (vm *VM) getFrame(n int) *frame {
	var fr *frame
	if k := len(vm.freeFrames) - 1; k >= 0 {
		fr = vm.freeFrames[k]
		vm.freeFrames[k] = nil
		vm.freeFrames = vm.freeFrames[:k]
		vm.Frames.PoolBytes -= int64(cap(fr.regs)) * obj.ValueBytes
		*fr = frame{regs: fr.regs}
		if cap(fr.regs) >= n {
			vm.Frames.Reuses++
			fr.regs = fr.regs[:n]
			clear(fr.regs)
			return fr
		}
	}
	vm.Frames.Allocs++
	class := minFrameRegs
	for class < n {
		class <<= 1
	}
	if fr == nil {
		fr = &frame{}
	}
	fr.regs = make([]obj.Value, n, class)
	return fr
}

// putFrame returns a dead frame to the pool, unless a closure pinned it
// (escaped) or the pool is full.
func (vm *VM) putFrame(fr *frame) {
	b := int64(cap(fr.regs)) * obj.ValueBytes
	if fr.escaped || vm.Frames.PoolBytes+b > maxPoolBytes {
		return
	}
	vm.Frames.PoolBytes += b
	vm.freeFrames = append(vm.freeFrames, fr)
}
