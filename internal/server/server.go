// Package server is selfserved's core: an HTTP/JSON front end that
// parses, compiles and runs Self programs on a pool of forked VMs
// sharing one world and one single-flight code cache — the
// compile-once/run-many architecture of the shared cache, turned into
// a long-running multi-tenant service.
//
// Production shape:
//
//   - a bounded pool of worker Systems (Fork of one shared root), one
//     request per worker at a time;
//   - a bounded admission queue in front of the pool — when it is
//     full, requests are shed immediately with 429 instead of piling
//     up;
//   - per-request Budget and deadline, clamped by server-wide caps,
//     enforced by the VM's cooperative poll (whose stride tightens
//     automatically for short deadlines);
//   - context cancellation end to end: a dropped client connection
//     aborts the guest run at the next poll;
//   - fault containment: guest faults, compiler failures and panics
//     surface as typed JSON errors (the RuntimeError kind taxonomy),
//     never as a crashed process;
//   - interning: repeated program texts load once, repeated eval
//     expressions compile once (bounded LRU, entries evicted from the
//     shared cache on rotation);
//   - observability: every layer (admission, VM run counters, code
//     cache, tier promotion) exports through internal/metrics on
//     /metrics, with /statusz as the human-readable JSON view.
package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/metrics"
	"selfgo/internal/wire"
)

// Config shapes a Server. The zero value is usable: it serves the
// paper's eager-optimizing tier with defaults suitable for tests.
type Config struct {
	// Compiler is the compiler generation (zero Name selects
	// selfgo.NewSELF).
	Compiler selfgo.Config
	// Mode is the tier schedule (ModeOpt, ModeBaseline, ModeAdaptive).
	Mode selfgo.TierMode
	// PromoteThreshold is the adaptive promotion threshold (<= 0 uses
	// the default).
	PromoteThreshold int64

	// Pool is the number of worker VMs (default 4).
	Pool int
	// QueueDepth bounds requests waiting for a worker; one more and
	// the server sheds with 429 (default 16).
	QueueDepth int

	// MaxInstrs/MaxAllocs/MaxDepth cap every request's budget; a
	// request may ask for less, never more. Defaults: 1e9 instructions,
	// 1e8 allocations, 10000 frames.
	MaxInstrs int64
	MaxAllocs int64
	MaxDepth  int
	// MaxBytes caps the modelled bytes of vector/clone storage a
	// request may allocate (16 bytes per element/field slot). Unlike
	// the poll-checked axes it is enforced at the allocation site, so
	// one hostile `_NewVec:` faults with 422 instead of OOMing the
	// host. Default 64 MiB — three orders of magnitude above what the
	// preloaded benchmarks touch, and it bounds each worker's peak
	// value storage to something a small container survives.
	MaxBytes int64
	// DefaultDeadline applies when a request names none (default 10s);
	// MaxDeadline caps what a request may ask for (default 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// PollEvery tightens the cooperative poll stride for every request
	// (0 keeps the VM default; requests may tighten further but not
	// loosen). Deadlines at or under ShortDeadline always poll at
	// least every shortDeadlineStride instructions.
	PollEvery int64

	// Limits bounds request decoding (zero fields take wire defaults).
	Limits wire.Limits

	// Benches names the benchmarks preloaded for POST /run; nil
	// preloads every ParallelSafe benchmark, empty-but-non-nil none.
	Benches []string

	// MaxPrograms bounds distinct program texts loaded into the world
	// over the server's lifetime (default 256; the world cannot unload
	// code, so past the cap new programs are rejected).
	MaxPrograms int
	// MaxEvalPrograms bounds the interned eval-expression LRU
	// (default 1024; past it the least-recently-used entry is dropped
	// and its compiled code evicted from the shared cache).
	MaxEvalPrograms int

	// ImagePath, when set, boots the world from that image instead of
	// cold-loading the prelude: the image's recorded sources are
	// replayed, saved object state is restored on top, interned eval
	// programs are re-seeded, and the code-cache manifest is
	// re-compiled in the background. /readyz stays 503 until that
	// pre-promotion finishes.
	ImagePath string
}

// ShortDeadline is the deadline at or below which the server forces a
// tight poll stride, so cancellation latency stays well under the
// deadline itself.
const ShortDeadline = 100 * time.Millisecond

const shortDeadlineStride = 128

func (c Config) withDefaults() Config {
	if c.Compiler.Name == "" {
		c.Compiler = selfgo.NewSELF
	}
	if c.Pool <= 0 {
		c.Pool = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxInstrs <= 0 {
		c.MaxInstrs = 1_000_000_000
	}
	if c.MaxAllocs <= 0 {
		c.MaxAllocs = 100_000_000
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10_000
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 256
	}
	if c.MaxEvalPrograms <= 0 {
		c.MaxEvalPrograms = 1024
	}
	return c
}

// benchEntry is one preloaded named benchmark.
type benchEntry struct {
	b bench.Benchmark
}

// Server is the daemon's state. Build with New, serve Handler().
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	root  *selfgo.System
	pool  chan *selfgo.System
	start time.Time

	// worldMu serializes world mutation (program loads) against guest
	// runs: runs hold it shared, loads exclusive. Loads are rare
	// (once per distinct program text), so the common path is an
	// uncontended RLock.
	worldMu sync.RWMutex
	// loadMu serializes loaders so a burst of requests for the same
	// new program runs one load, not a convoy.
	loadMu sync.Mutex

	// progMu guards the two interning tables.
	progMu   sync.Mutex
	loaded   map[[sha256.Size]byte]bool // program texts already in the world
	exprs    map[[sha256.Size]byte]*exprEntry
	exprLRU  *list.List // of *exprEntry, front = most recent
	benches  map[string]benchEntry
	queued   atomic.Int64
	inFlight atomic.Int64
	poolPeak atomic.Int64 // high-water mark of checked-out workers
	draining atomic.Bool
	served   atomic.Int64 // requests answered (any status)
	drained  atomic.Int64 // requests completed while draining

	// Boot provenance. imageHash and restoreDur are fixed at New
	// ("" / 0 for a cold boot); ready flips once background
	// pre-promotion finishes (immediately on a cold boot), and
	// readySeconds records the time-to-ready at that moment.
	imageHash        string
	restoreDur       time.Duration
	prepromoted      atomic.Int64
	prepromoteFailed atomic.Int64
	ready            atomic.Bool
	readySeconds     atomic.Int64 // microseconds, stored once

	// tiers is the tier map replies carry, rebuilt only when a compile
	// moves the tally (tierCounts).
	tiers atomic.Pointer[tierView]

	m serverMetrics
}

type exprEntry struct {
	key  [sha256.Size]byte
	prog *selfgo.EvalProgram
	elem *list.Element // its place in exprLRU
}

// New builds the shared system — cold (prelude load) or warm (world
// image replay + restore) — preloads the named benchmarks, forks the
// worker pool, and wires the metrics registry. On a warm boot the
// manifest pre-promotion runs in the background; /readyz reports 503
// until it finishes.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		pool:    make(chan *selfgo.System, cfg.Pool),
		start:   time.Now(),
		loaded:  map[[sha256.Size]byte]bool{},
		exprs:   map[[sha256.Size]byte]*exprEntry{},
		exprLRU: list.New(),
		benches: map[string]benchEntry{},
	}

	var boot *selfgo.Boot
	if cfg.ImagePath != "" {
		f, err := os.Open(cfg.ImagePath)
		if err != nil {
			return nil, fmt.Errorf("opening image: %w", err)
		}
		boot, err = selfgo.BootFromImage(f, cfg.Compiler, cfg.Mode, cfg.PromoteThreshold)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("booting from image %s: %w", cfg.ImagePath, err)
		}
		s.root = boot.Sys
		s.imageHash = boot.Hash
		s.restoreDur = boot.RestoreDuration
		// The replayed sources are already in the world: seed the
		// program-dedup table so a trace that re-submits them does not
		// re-load (a re-load would reshape maps and invalidate the
		// code the manifest is about to rebuild). Same for the
		// restored eval programs: re-seeding the intern table keeps
		// their identity — and thus their pre-promoted cache entries —
		// live for replayed /eval traffic.
		for _, src := range boot.Sources {
			s.loaded[sha256.Sum256([]byte(src))] = true
		}
		for _, p := range boot.Programs {
			s.internLocked(sha256.Sum256([]byte(p.Source)), p)
		}
	} else {
		root, err := selfgo.NewTieredSystem(cfg.Compiler, cfg.Mode, cfg.PromoteThreshold)
		if err != nil {
			return nil, err
		}
		s.root = root
	}

	// Preload benchmarks: their sources join the shared world once, so
	// every later /run request is pure execution against warm or
	// warming cache. A warm boot normally replayed them out of the
	// image already; only benchmarks the image does not carry load
	// here.
	names := cfg.Benches
	if names == nil {
		for _, b := range bench.ParallelSafe() {
			names = append(names, b.Name)
		}
	}
	for _, name := range names {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		if !b.ParallelSafe {
			return nil, fmt.Errorf("benchmark %q keeps state in lobby globals and cannot run on concurrent workers", name)
		}
		if !s.loaded[sha256.Sum256([]byte(b.Source))] {
			if err := s.root.LoadSource(b.Source); err != nil {
				return nil, fmt.Errorf("preloading %s: %w", name, err)
			}
		}
		s.benches[name] = benchEntry{b: b}
	}

	// The pool: the root plus Pool-1 forks. Every worker shares the
	// world, the pipelines and the code cache; each runs one request
	// at a time.
	s.pool <- s.root
	for i := 1; i < cfg.Pool; i++ {
		s.pool <- s.root.Fork()
	}

	s.registerMetrics()

	if boot != nil && boot.ManifestLen() > 0 {
		// Rebuild the hot code set off the request path. Readiness is
		// gated on completion, so a load balancer only routes here
		// once the manifest's code is resident at its recorded tiers.
		go func() {
			compiled, failed := boot.Prepromote(cfg.Pool)
			s.prepromoted.Store(int64(compiled))
			s.prepromoteFailed.Store(int64(failed))
			s.markReady()
		}()
	} else {
		s.markReady()
	}
	return s, nil
}

// markReady flips the readiness gate once and records time-to-ready.
func (s *Server) markReady() {
	if s.ready.CompareAndSwap(false, true) {
		s.readySeconds.Store(time.Since(s.start).Microseconds())
	}
}

// Ready reports whether boot (including any background manifest
// pre-promotion) has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// BootInfo describes how this process came up, for /statusz.
type BootInfo struct {
	// Image is the booted image's hash, or "cold".
	Image string `json:"image"`
	// ReadySeconds is the time from New to readiness (0 while still
	// warming); RestoreSeconds the image decode+replay+restore time.
	ReadySeconds   float64 `json:"ready_seconds"`
	RestoreSeconds float64 `json:"restore_seconds"`
	// Prepromoted counts manifest entries re-compiled at boot;
	// PrepromoteFailed the ones that fell back to on-demand compiles.
	Prepromoted      int64 `json:"prepromoted"`
	PrepromoteFailed int64 `json:"prepromote_failed"`
	Ready            bool  `json:"ready"`
}

// Boot reports this server's boot provenance.
func (s *Server) Boot() BootInfo {
	info := BootInfo{
		Image:            "cold",
		RestoreSeconds:   s.restoreDur.Seconds(),
		ReadySeconds:     float64(s.readySeconds.Load()) / 1e6,
		Prepromoted:      s.prepromoted.Load(),
		PrepromoteFailed: s.prepromoteFailed.Load(),
		Ready:            s.ready.Load(),
	}
	if s.imageHash != "" {
		info.Image = s.imageHash
	}
	return info
}

// SaveImage writes a world image — sources, object state, interned
// eval programs, code-cache manifest — to path. Meant to run after
// Drain and listener shutdown: it takes the world lock exclusively, so
// any still-running request finishes first, and drains background
// promotions so the manifest sees settled tiers.
func (s *Server) SaveImage(path string) (*selfgo.ImageInfo, error) {
	s.root.DrainPromotions()
	s.worldMu.Lock()
	defer s.worldMu.Unlock()
	// Oldest first, so a restored process re-interns in the same
	// relative order and identical cache contents produce identical
	// images.
	s.progMu.Lock()
	progs := make([]*selfgo.EvalProgram, 0, len(s.exprs))
	for el := s.exprLRU.Back(); el != nil; el = el.Prev() {
		progs = append(progs, el.Value.(*exprEntry).prog)
	}
	s.progMu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating image file: %w", err)
	}
	info, err := s.root.SaveImage(f, progs)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("writing image: %w", cerr)
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return info, nil
}

// Registry exposes the metrics registry (cmd/selfserved adds process
// metadata; tests read it directly).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Mode returns the tier schedule the server runs.
func (s *Server) Mode() selfgo.TierMode { return s.cfg.Mode }

// Drain flips the server into draining: /readyz turns 503 so load
// balancers stop sending traffic, and new work is rejected with 503
// while requests already admitted run to completion. The HTTP
// listener's graceful Shutdown does the actual waiting.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Served returns the number of requests answered so far; DrainedOK the
// number completed after Drain.
func (s *Server) Served() int64    { return s.served.Load() }
func (s *Server) DrainedOK() int64 { return s.drained.Load() }

// InFlight returns the number of requests currently executing guest
// code.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// errShed is returned by acquire when the admission queue is full.
var errShed = fmt.Errorf("admission queue full")

// acquire hands out a worker VM, queueing boundedly: if the queue is
// already at QueueDepth the request is shed immediately (429 beats an
// unbounded pileup — the client can back off, the server stays
// responsive). A queued request still honors its context and its
// deadline: a waiter whose client hangs up leaves the queue with the
// context's error, one whose deadline passes with
// context.DeadlineExceeded. Only a request that has to queue arms a
// timer.
func (s *Server) acquire(ctx context.Context, deadline time.Time) (*selfgo.System, error) {
	select {
	case sys := <-s.pool:
		s.notePoolCheckout()
		return sys, nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.m.shed.Inc()
		return nil, errShed
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case sys := <-s.pool:
		s.notePoolCheckout()
		return sys, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
		return nil, context.DeadlineExceeded
	}
}

// notePoolCheckout folds the post-checkout occupancy into the pool's
// high-water mark. The live in-use gauge can only be point-sampled —
// a cached expression holds a worker for microseconds, so an external
// scraper watching the gauge under load may legitimately never catch
// it nonzero. The peak is the monotone record of the same live
// occupancy that load drivers can assert on after the fact.
func (s *Server) notePoolCheckout() {
	inUse := int64(s.cfg.Pool - len(s.pool))
	for {
		cur := s.poolPeak.Load()
		if inUse <= cur || s.poolPeak.CompareAndSwap(cur, inUse) {
			return
		}
	}
}

// Retry-After bounds: never tell a shed client to come back sooner
// than 1s (it would just be shed again) or later than 30s (past that
// the hint is noise — the client should re-resolve or give up).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// retryAfterSeconds derives the Retry-After hint for a shed request
// from live load: the backlog the client is behind (everything
// running plus everything queued) divided by the pool's parallelism,
// i.e. roughly how many "pool drains" must happen before a retry
// would find a free slot, at an assumed ~1s per drain. Coarse on
// purpose — the value's job is to spread retries of a thundering herd
// proportionally to how overloaded the server actually is, and to
// give a front router an honest shed signal, not to be a latency
// oracle. Always within [minRetryAfterSeconds, maxRetryAfterSeconds].
func (s *Server) retryAfterSeconds() int {
	backlog := s.inFlight.Load() + s.queued.Load()
	pool := int64(s.cfg.Pool)
	secs := (backlog + pool - 1) / pool // ceil(backlog / pool)
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return int(secs)
}

func (s *Server) release(sys *selfgo.System) {
	sys.SetBudget(selfgo.Budget{})
	// End of the worker's arena epoch: if the finished run leaked
	// nothing (the common case — benchmark runs return small ints),
	// the arena's chunks are zeroed and recycled for the next request.
	// Values that escaped the run — stored into the shared world, or
	// returned as the result (runOnWorker pins those via MarkEscaped)
	// — flip the epoch dirty, and Reset abandons its chunks to the Go
	// heap instead, so every surviving reference stays valid.
	sys.ResetArena()
	fs := sys.TakeFrameStats()
	s.m.frameAllocs.Add(fs.Allocs)
	s.m.frameReuses.Add(fs.Reuses)
	s.m.framePoolBytes.Add(fs.PoolBytes)
	s.pool <- sys
}

// effectiveBudget clamps the request's asks to the server caps. Zero
// asks mean "as much as allowed", not "unlimited".
func (s *Server) effectiveBudget(req *wire.Budget, deadline time.Duration) selfgo.Budget {
	b := selfgo.Budget{
		MaxInstrs: s.cfg.MaxInstrs,
		MaxAllocs: s.cfg.MaxAllocs,
		MaxDepth:  s.cfg.MaxDepth,
		MaxBytes:  s.cfg.MaxBytes,
		PollEvery: s.cfg.PollEvery,
	}
	if req != nil {
		if req.MaxInstrs > 0 && req.MaxInstrs < b.MaxInstrs {
			b.MaxInstrs = req.MaxInstrs
		}
		if req.MaxAllocs > 0 && req.MaxAllocs < b.MaxAllocs {
			b.MaxAllocs = req.MaxAllocs
		}
		if req.MaxBytes > 0 && req.MaxBytes < b.MaxBytes {
			b.MaxBytes = req.MaxBytes
		}
		if req.MaxDepth > 0 && req.MaxDepth < b.MaxDepth {
			b.MaxDepth = req.MaxDepth
		}
		if req.PollEvery > 0 && (b.PollEvery == 0 || req.PollEvery < b.PollEvery) {
			b.PollEvery = req.PollEvery
		}
	}
	// Short deadlines force a tight poll so the abort lands well
	// inside the deadline, whatever the caller asked for.
	if deadline > 0 && deadline <= ShortDeadline &&
		(b.PollEvery == 0 || b.PollEvery > shortDeadlineStride) {
		b.PollEvery = shortDeadlineStride
	}
	return b
}

// effectiveDeadline clamps the request's deadline to the server caps.
// The clamp is taken in milliseconds, before the conversion to a
// Duration could overflow.
func (s *Server) effectiveDeadline(deadlineMS int64) time.Duration {
	switch {
	case deadlineMS <= 0:
		return min(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	case deadlineMS > int64(s.cfg.MaxDeadline/time.Millisecond):
		return s.cfg.MaxDeadline
	}
	return time.Duration(deadlineMS) * time.Millisecond
}

// ensureProgram loads a program text into the shared world, once per
// distinct text for the server's lifetime. The load takes the world
// write lock, so it waits for in-flight runs and briefly stalls new
// ones; repeated texts hit the table and pay nothing.
func (s *Server) ensureProgram(src []byte) error {
	key := sha256.Sum256(src)
	s.progMu.Lock()
	already := s.loaded[key]
	s.progMu.Unlock()
	if already {
		return nil
	}

	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	s.progMu.Lock()
	if s.loaded[key] { // lost the race to another loader: fine
		s.progMu.Unlock()
		return nil
	}
	full := len(s.loaded) >= s.cfg.MaxPrograms
	s.progMu.Unlock()
	if full {
		return &wire.RequestError{Status: http.StatusInsufficientStorage,
			Msg: fmt.Sprintf("program table full (%d distinct programs); restart or raise -max-programs", s.cfg.MaxPrograms)}
	}

	s.worldMu.Lock()
	err := s.root.LoadSource(string(src))
	s.worldMu.Unlock()
	if err != nil {
		return &wire.RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("loading program: %v", err)}
	}

	s.progMu.Lock()
	s.loaded[key] = true
	s.m.programsLoaded.Inc()
	// Interned eval expressions were parsed against the old world
	// shape; drop them (their compiled code too) rather than risk
	// running stale customizations.
	for _, e := range s.exprs {
		s.root.DropEvalProgram(e.prog)
	}
	clear(s.exprs)
	s.exprLRU.Init()
	s.progMu.Unlock()
	return nil
}

// internExpr resolves src to its interned EvalProgram, parsing it on
// first sight: the lookup is by the text's hash, and only a miss makes
// a string of it. The table is a bounded LRU: past MaxEvalPrograms the
// coldest entry is dropped and its compiled code evicted from the
// shared cache, so a tenant cycling through unique programs cannot
// grow the cache without bound.
func (s *Server) internExpr(src []byte) (*selfgo.EvalProgram, error) {
	key := sha256.Sum256(src)
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if e, ok := s.exprs[key]; ok {
		s.exprLRU.MoveToFront(e.elem)
		s.m.exprHits.Inc()
		return e.prog, nil
	}
	prog, err := s.root.ParseEval(string(src))
	if err != nil {
		return nil, &wire.RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("parsing expr: %v", err)}
	}
	if len(s.exprs) >= s.cfg.MaxEvalPrograms {
		s.evictColdestLocked()
	}
	s.internLocked(key, prog)
	s.m.exprInterned.Inc()
	return prog, nil
}

// internLocked enters prog as the most recently used expression.
func (s *Server) internLocked(key [sha256.Size]byte, prog *selfgo.EvalProgram) {
	e := &exprEntry{key: key, prog: prog}
	e.elem = s.exprLRU.PushFront(e)
	s.exprs[key] = e
}

// evictColdestLocked drops the least-recently-used interned
// expression: the back of the recency list.
func (s *Server) evictColdestLocked() {
	back := s.exprLRU.Back()
	if back == nil {
		return
	}
	coldest := s.exprLRU.Remove(back).(*exprEntry)
	s.root.DropEvalProgram(coldest.prog)
	delete(s.exprs, coldest.key)
	s.m.exprEvicted.Inc()
}

// LoadedPrograms and InternedExprs report interning table sizes (for
// /statusz and tests).
func (s *Server) LoadedPrograms() int {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	return len(s.loaded)
}

func (s *Server) InternedExprs() int {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	return len(s.exprs)
}
