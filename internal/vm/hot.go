// Hotness tracking and type-feedback harvest: the VM side of tiered
// adaptive compilation. A baseline-tier Code accumulates invocation
// and loop-backedge counts (one atomic add each, charged only while an
// OnHot hook is installed — the eager tiers pay nothing); when the
// combined count first reaches PromoteThreshold, OnHot fires exactly
// once for that Code, and the host typically harvests the inline
// caches as receiver-map feedback and requests a cache promotion.
package vm

import (
	"selfgo/internal/ir"
	"selfgo/internal/types"
)

// noteInvoke charges one invocation and fires OnHot at the threshold.
func (vm *VM) noteInvoke(code *Code) {
	n := code.Hot.invocations.Add(1)
	if n+code.Hot.backedges.Load() >= vm.PromoteThreshold {
		vm.triggerHot(code)
	}
}

// noteBackedge charges one loop backedge (a backward jump in the
// instruction stream) and fires OnHot at the threshold. Backedges make
// long-running loops hot without waiting for the method to return and
// be re-invoked — the classic two-counter JIT trigger.
func (vm *VM) noteBackedge(code *Code) {
	n := code.Hot.backedges.Add(1)
	if n+code.Hot.invocations.Load() >= vm.PromoteThreshold {
		vm.triggerHot(code)
	}
}

// triggerHot fires OnHot once per Code: the requested flag is shared
// by every VM executing this Code, so exactly one CAS winner calls its
// hook even when several VMs cross the threshold concurrently.
func (vm *VM) triggerHot(code *Code) {
	if code.Hot.requested.CompareAndSwap(false, true) {
		vm.OnHot(code)
	}
}

// maxFeedbackMaps bounds feedback per selector: a send site that
// observed more distinct receiver maps than this is megamorphic —
// chaining that many type tests would cost more than the dispatch —
// so the selector is dropped from the harvest.
const maxFeedbackMaps = 3

// Harvest snapshots the receiver maps this VM's inline caches observed
// at code's send sites, as type feedback for a higher compilation
// tier: for each dynamically-dispatched selector, the monomorphic
// entry's map followed by the PIC's maps, deduplicated, megamorphic
// selectors dropped. The snapshot reads only this VM's own inline
// caches (see linked), so it is safe to call from the VM's goroutine at
// any point, including from inside OnHot.
func (vm *VM) Harvest(code *Code) *types.Feedback {
	vm.init()
	vm.checkGen()
	ics := vm.link(code).ics
	fb := types.NewFeedback()
	over := map[string]bool{}
	for i := range code.Instrs {
		in := &code.Instrs[i]
		if in.Op != ir.Send || in.Direct() || over[code.sites[in.Aux].Sel] {
			continue
		}
		sel, ic := code.sites[in.Aux].Sel, &ics[in.Aux] // a site's index is its cache's
		if ic.m != nil {
			fb.Add(sel, ic.m)
		}
		for j := range ic.pic {
			fb.Add(sel, ic.pic[j].m)
		}
		if len(fb.Maps(sel)) > maxFeedbackMaps {
			fb.Drop(sel)
			over[sel] = true
		}
	}
	return fb
}
