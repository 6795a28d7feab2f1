// Package codecache is a process-wide cache of compiled code shared by
// concurrently-running VMs. Customization ("one compiled method per
// receiver map", Chambers & Ungar §2) makes this the hot shared
// structure of the whole system: every send that misses its inline
// cache ends here, so the cache is sharded to keep goroutines off each
// other's locks, and compilation is single-flight — when N goroutines
// request the same (method, receiver map) customization at once,
// exactly one runs the compiler while the rest block on its result.
//
// The design follows the shared versioned code caches of basic-block
// versioning systems (Chevalier-Boisvert & Feeley): entries are keyed
// by code identity plus the type context they were specialized for (a
// receiver map, here), and are invalidated when that context changes
// shape (a map's slots are added, replaced or re-parented).
package codecache

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
)

// numShards spreads unrelated customizations across independent locks.
// Keys distribute by selector and receiver-map identity, so the common
// fan-out — many goroutines warming different methods — rarely
// contends.
const numShards = 16

// Key identifies one unit of compiled code: a method customized for a
// receiver map (RMap nil when customization is off), or an out-of-line
// block. Exactly one of Meth/Blk is set. Strat is the specialization
// strategy the code was compiled under (core.Strategy's numeric value):
// replicas running different strategies in one process specialize the
// same method differently, so they must not share entries.
type Key struct {
	Meth  *obj.Method
	RMap  *obj.Map
	Blk   *ast.Block
	Strat uint8
}

// shardIndex hashes the key's stable identity (selector text, map IDs,
// block position) rather than pointer bits, so the distribution is
// deterministic across runs.
func (k Key) shardIndex() int {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	mixInt := func(v int) {
		mix(byte(v))
		mix(byte(v >> 8))
		mix(byte(v >> 16))
		mix(byte(v >> 24))
	}
	if k.Meth != nil {
		for i := 0; i < len(k.Meth.Sel); i++ {
			mix(k.Meth.Sel[i])
		}
		if k.Meth.Holder != nil {
			mixInt(k.Meth.Holder.ID)
		}
	}
	if k.RMap != nil {
		mixInt(k.RMap.ID)
	}
	if k.Blk != nil {
		mixInt(k.Blk.P.Line)
		mixInt(k.Blk.P.Col)
	}
	mix(k.Strat)
	return int(h % numShards)
}

// Outcome says how a Get was satisfied.
type Outcome uint8

// Get outcomes.
const (
	// Hit: the code was already compiled.
	Hit Outcome = iota
	// Wait: another goroutine was compiling it; we blocked on its
	// result (the single-flight path).
	Wait
	// Compiled: this call won the flight and ran the compiler.
	Compiled
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Wait:
		return "wait"
	case Compiled:
		return "compiled"
	}
	return "outcome?"
}

// Stats is a point-in-time snapshot of one shard's (or, summed, the
// whole cache's) counters.
type Stats struct {
	Hits    int64 // Get found completed code
	Misses  int64 // Get compiled (each miss is exactly one compiler run)
	Waits   int64 // Get blocked on another goroutine's compile
	Evicted int64 // entries removed by invalidation
	Entries int64 // entries currently resident

	// Promotion outcomes (see Promote). A promotion swaps an entry in
	// place, so it affects none of the counters above: CompileOnce
	// keeps holding in adaptive runs, with the higher-tier recompiles
	// accounted here instead.
	Promotions      int64 // promoted code installed
	PromoteFails    int64 // promotion compile failed or panicked
	PromoteDiscards int64 // promoted code discarded (entry invalidated meanwhile)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Waits += o.Waits
	s.Evicted += o.Evicted
	s.Entries += o.Entries
	s.Promotions += o.Promotions
	s.PromoteFails += o.PromoteFails
	s.PromoteDiscards += o.PromoteDiscards
}

// entry is one cached compilation. done is closed when val/err are
// valid; val and err are written exactly once, before the close, so
// readers that observed the close may read them without the shard lock.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[Key]*entry[V]

	// fails counts consecutive failed flights per key; at
	// maxCompileFails the error entry stays resident (negative cache)
	// so persistently-failing keys cannot start a retry storm. Cleared
	// by a successful compile or by invalidation.
	fails map[Key]int

	// promoting marks keys with a tier-promotion flight in progress
	// (see Promote); concurrent Promote calls for such a key return
	// false instead of starting a second compile.
	promoting map[Key]bool

	hits, misses, waits, evicted int64

	// Promotion outcomes are atomics, written under mu like the rest but
	// readable without it: every reply a server builds reports them
	// (PromotionCounts), and that read must not queue behind compiles.
	promotions, promoteFails, promoteDiscards atomic.Int64
}

// maxCompileFails bounds retry storms: after this many consecutive
// failed flights for one key, the error itself is cached and later
// Gets return it without re-running the compiler, until the key is
// invalidated or the cache flushed.
const maxCompileFails = 3

// PanicError is delivered to every caller of a flight whose compile
// callback panicked: the panic is contained inside Get (the flight's
// entry is always completed, so waiters never deadlock) and surfaces
// as an error instead of crashing the process. Stack holds the Go
// stack captured at the panic.
type PanicError struct {
	Val   any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("compile panicked: %v", e.Val) }

// Cache is the sharded single-flight code cache. V is the compiled
// representation (the VM instantiates it with *vm.Code; keeping it a
// type parameter avoids an import cycle and keeps this package
// mechanism-only).
type Cache[V any] struct {
	shards [numShards]shard[V]

	// gen counts invalidations. VMs keep private read-through memos of
	// resolved code (sends are far hotter than compiles — a shard lock
	// per send would serialize the workers) and drop them whenever the
	// generation moves, so eviction still reaches every VM. Successful
	// promotions bump it too: swapping in higher-tier code must reach
	// every VM's memo the same way eviction does.
	gen atomic.Int64

	// promWG tracks in-flight promotion goroutines (DrainPromotions).
	promWG sync.WaitGroup
}

// Generation returns the invalidation epoch. Any privately memoized
// result read at generation g is stale once Generation() != g.
func (c *Cache[V]) Generation() int64 { return c.gen.Load() }

// New returns an empty cache.
func New[V any]() *Cache[V] {
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*entry[V]{}
		c.shards[i].fails = map[Key]int{}
		c.shards[i].promoting = map[Key]bool{}
	}
	return c
}

// Get returns the code for k, compiling it at most once per residency:
// the first requester runs compile outside the shard lock while
// concurrent requesters for the same key block on its result. A failed
// compile is not cached — the error is delivered to every goroutine of
// that flight, and a later Get retries — until maxCompileFails
// consecutive failures, after which the error entry stays resident and
// later Gets return it without recompiling (bounded retry storms).
//
// Get never lets a panicking compile escape: the flight's entry is
// completed (and e.done closed) on every path, so waiters cannot
// deadlock, and the panic reaches every caller as a *PanicError.
func (c *Cache[V]) Get(k Key, compile func() (V, error)) (v V, outcome Outcome, err error) {
	s := &c.shards[k.shardIndex()]
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		select {
		case <-e.done:
			s.hits++
			s.mu.Unlock()
			return e.val, Hit, e.err
		default:
			s.waits++
			s.mu.Unlock()
			<-e.done
			return e.val, Wait, e.err
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	s.entries[k] = e
	s.misses++
	s.mu.Unlock()

	outcome = Compiled
	completed := false
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, &PanicError{Val: r, Stack: debug.Stack()}
		} else if !completed && err == nil {
			// compile unwound without returning or panicking
			// (runtime.Goexit): still complete the flight.
			err = errors.New("codecache: compile aborted before returning")
		}
		s.mu.Lock()
		if err != nil {
			// Only touch our own entry: an invalidation may have
			// removed it already, and a fresh flight may have taken
			// the slot.
			if s.entries[k] == e {
				s.fails[k]++
				if s.fails[k] < maxCompileFails {
					delete(s.entries, k) // a later Get retries
				}
			}
		} else {
			delete(s.fails, k)
		}
		s.mu.Unlock()
		e.val, e.err = v, err
		close(e.done)
	}()
	v, err = compile()
	completed = true
	return v, Compiled, err
}

// Peek reports whether k is resident and compiled, without counting a
// hit or waiting on an in-flight compile.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	s := &c.shards[k.shardIndex()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		select {
		case <-e.done:
			if e.err == nil {
				return e.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// InvalidateMap removes every customization that depends on m: code
// customized for receivers of m, and code compiled from methods whose
// holder is m (the method body itself may have been redefined). Blocks
// are compiled per-AST and survive; a redefined enclosing method
// produces new block ASTs. Goroutines already waiting on an in-flight
// compile of a removed entry still receive its (now stale but
// internally consistent) result; the next Get recompiles against the
// new shape. Returns the number of entries removed.
func (c *Cache[V]) InvalidateMap(m *obj.Map) int {
	if m == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			if k.RMap == m || (k.Meth != nil && k.Meth.Holder == m) {
				delete(s.entries, k)
				s.evicted++
				n++
			}
		}
		// The reshaped map may fix what made a key fail: give it a
		// fresh run of retries.
		for k := range s.fails {
			if k.RMap == m || (k.Meth != nil && k.Meth.Holder == m) {
				delete(s.fails, k)
			}
		}
		s.mu.Unlock()
	}
	if n > 0 {
		c.gen.Add(1)
	}
	return n
}

// Invalidate removes k's entry (resident or still compiling),
// counting it as evicted and bumping the generation so every VM's
// private memo of it drops. Goroutines waiting on an in-flight compile
// of k still receive its result (the flight completes into its own
// entry object); the key's failure streak is cleared too. Returns
// whether an entry was removed. Servers use this to evict interned
// one-off programs whose keys would otherwise stay resident forever.
func (c *Cache[V]) Invalidate(k Key) bool {
	s := &c.shards[k.shardIndex()]
	s.mu.Lock()
	_, ok := s.entries[k]
	if ok {
		delete(s.entries, k)
		s.evicted++
	}
	delete(s.fails, k)
	s.mu.Unlock()
	if ok {
		c.gen.Add(1)
	}
	return ok
}

// Flush empties the cache entirely, counting every resident entry as
// evicted.
func (c *Cache[V]) Flush() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			delete(s.entries, k)
			s.evicted++
			n++
		}
		clear(s.fails)
		s.mu.Unlock()
	}
	if n > 0 {
		c.gen.Add(1)
	}
	return n
}

// stats snapshots one shard's counters.
func (s *shard[V]) stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Waits: s.waits,
		Evicted: s.evicted, Entries: int64(len(s.entries)),
		Promotions: s.promotions.Load(), PromoteFails: s.promoteFails.Load(),
		PromoteDiscards: s.promoteDiscards.Load(),
	}
}

// Stats sums the per-shard counters.
func (c *Cache[V]) Stats() Stats {
	var t Stats
	for i := range c.shards {
		t.Add(c.shards[i].stats())
	}
	return t
}

// ShardStats snapshots each shard's counters (the per-shard view that
// selfbench -workers prints to show lock spread).
func (c *Cache[V]) ShardStats() []Stats {
	out := make([]Stats, numShards)
	for i := range c.shards {
		out[i] = c.shards[i].stats()
	}
	return out
}

// PromotionCounts sums the promotion outcomes alone, taking no shard
// lock: what a server reads for every reply it builds.
func (c *Cache[V]) PromotionCounts() (installed, fails, discards int64) {
	for i := range c.shards {
		s := &c.shards[i]
		installed += s.promotions.Load()
		fails += s.promoteFails.Load()
		discards += s.promoteDiscards.Load()
	}
	return installed, fails, discards
}

// CompileOnce reports the cache's core invariant for a warmed run: each
// resident-or-evicted entry was produced by exactly one compiler run
// (misses == entries + evicted). It is what `selfbench -workers`
// asserts to demonstrate compile-once/run-many.
func (s Stats) CompileOnce() bool {
	return s.Misses == s.Entries+s.Evicted
}
