// Tier promotion: recompiling a resident entry at a higher tier in the
// background and atomically swapping the cached code, without ever
// making readers wait — they keep getting the current code until the
// swap lands. The swap obeys the same generation discipline as
// invalidation, so every VM's private L1 memo of the old code is
// dropped and the next resolve observes the promoted code.
package codecache

import (
	"runtime/debug"
)

// Promote recompiles k in the background and swaps the result in. It
// returns true when a promotion flight was started, false when k is
// not resident-and-completed-successfully, or a promotion for k is
// already in flight (single-flight: concurrent Promote calls for one
// key run compile at most once per accepted flight).
//
// compile runs on a fresh goroutine; panics are contained as
// *PanicError. The install is guarded against the invalidation race:
// the flight captures the entry it is promoting, and installs only if
// that very entry is still resident when the compile finishes — if an
// InvalidateMap (or Flush, or a fresh Get flight after one) removed or
// replaced it meanwhile, the promoted code is discarded rather than
// resurrected over code compiled against the newer world shape. A
// successful install bumps the invalidation generation, so per-VM L1
// memos drop exactly as they do for map-change invalidation.
//
// On a failed or discarded promotion the old entry stays resident and
// keeps being served — the key falls back to its current tier.
//
// onDone, when non-nil, runs on the flight goroutine after the
// install decision: installed reports whether the new code was swapped
// in (false for both failures and discards).
func (c *Cache[V]) Promote(k Key, compile func() (V, error), onDone func(v V, err error, installed bool)) bool {
	s := &c.shards[k.shardIndex()]
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok || s.promoting[k] {
		s.mu.Unlock()
		return false
	}
	select {
	case <-e.done:
		if e.err != nil {
			// A negatively-cached failure is not promotable; a fresh
			// Get must recompile it at its own tier first.
			s.mu.Unlock()
			return false
		}
	default:
		// Still being compiled by a Get flight.
		s.mu.Unlock()
		return false
	}
	s.promoting[k] = true
	s.mu.Unlock()

	c.promWG.Add(1)
	go func() {
		defer c.promWG.Done()
		var v V
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					var zero V
					v, err = zero, &PanicError{Val: r, Stack: debug.Stack()}
				}
			}()
			v, err = compile()
		}()

		installed := false
		s.mu.Lock()
		delete(s.promoting, k)
		switch {
		case err != nil:
			s.promoteFails.Add(1)
		case s.entries[k] != e:
			// Invalidated (or replaced by a fresh flight) while we
			// compiled: the promoted code was built against a world
			// shape that may no longer hold. Discard — installing it
			// would resurrect stale code past the invalidation.
			s.promoteDiscards.Add(1)
		default:
			ne := &entry[V]{done: closedChan(), val: v}
			s.entries[k] = ne
			s.promotions.Add(1)
			installed = true
		}
		s.mu.Unlock()
		if installed {
			// Same discipline as InvalidateMap: move the generation so
			// every VM's private memo of the old code is dropped.
			c.gen.Add(1)
		}
		if onDone != nil {
			onDone(v, err, installed)
		}
	}()
	return true
}

// closedChan returns an already-closed channel, for entries installed
// in completed state.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// DrainPromotions blocks until every in-flight promotion has finished
// (installed, failed, or discarded). Tests and benchmarks use it to
// make promotion effects deterministic.
func (c *Cache[V]) DrainPromotions() {
	c.promWG.Wait()
}
