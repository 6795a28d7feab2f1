package selfgo

import (
	"fmt"
	"io"
	"sync"
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/codecache"
	"selfgo/internal/core"
	"selfgo/internal/image"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

// ImageInfo summarizes a saved world image.
type ImageInfo struct {
	// Hash is the hex sha256 of the image payload; BootFromImage
	// reports the same hash, so operators can match a running replica
	// to the file it booted from.
	Hash  string
	Bytes int
	// Objects is the number of serialized objects, Sources the number
	// of recorded load texts, Programs the number of interned eval
	// programs.
	Sources  int
	Programs int
	Objects  int
	// Manifest counts the persisted code-cache entries; Skipped the
	// cache entries that were dropped because their code is no longer
	// reachable from the world (redefined methods, rotated-out eval
	// programs, blocks no compiled code references anymore).
	Manifest int
	Skipped  int
}

// SaveImage serializes the system's world, the given interned eval
// programs, and the code cache's manifest (keys, tiers,
// hotness — never machine code) to out. The caller must ensure the
// system is quiescent: no Call/Eval running on it or any fork, no
// in-flight background promotion mutating the cache mid-walk (the
// serving layer saves after draining).
func (s *System) SaveImage(out io.Writer, progs []*EvalProgram) (*ImageInfo, error) {
	srcs, dirty := s.sources.snapshot()
	if dirty {
		return nil, fmt.Errorf("cannot save image: an earlier source load failed partway, so the world no longer matches any replayable source sequence")
	}
	evals := make([]image.Eval, len(progs))
	for i, p := range progs {
		evals[i] = image.Eval{Source: p.Source, Meth: p.meth}
	}
	manifest, preSkipped := s.manifestEntries()
	img, skipped, err := image.Snapshot(s.world, srcs, evals, manifest)
	if err != nil {
		return nil, err
	}
	data := image.Encode(img)
	if _, err := out.Write(data); err != nil {
		return nil, fmt.Errorf("writing image: %w", err)
	}
	return &ImageInfo{
		Hash:     img.Hash,
		Bytes:    len(data),
		Sources:  len(img.Sources),
		Programs: len(img.EvalSources),
		Objects:  len(img.Objects),
		Manifest: len(img.Manifest),
		Skipped:  skipped + preSkipped,
	}, nil
}

// manifestEntries drains the code cache into pointer-form manifest
// entries. Block entries need the cell names their compilation used;
// they are the capture names of the MkBlk instructions of the cached
// codes (as they are for the VM), and a block no cached code creates
// anymore is skipped — nothing could ever run it.
func (s *System) manifestEntries() ([]image.Manifest, int) {
	type kc struct {
		k codecache.Key
		c *vm.Code
	}
	var all []kc
	s.cache.ForEach(func(k codecache.Key, c *vm.Code) { all = append(all, kc{k, c}) })
	upNames := map[*ast.Block][]string{}
	for _, e := range all {
		e.c.BlockCaptures(func(blk *ast.Block, caps []ir.Capture) {
			if _, ok := upNames[blk]; blk != nil && !ok {
				upNames[blk] = ir.CaptureNames(caps)
			}
		})
	}
	var out []image.Manifest
	skipped := 0
	for _, e := range all {
		m := image.Manifest{
			Tier:        e.c.TierLabel,
			Invocations: e.c.Hot.Invocations(),
			Backedges:   e.c.Hot.Backedges(),
			Requested:   e.c.Hot.Requested(),
		}
		switch {
		case e.k.Blk != nil:
			names, ok := upNames[e.k.Blk]
			if !ok {
				skipped++
				continue
			}
			m.Blk, m.UpNames = e.k.Blk, names
		case e.k.Meth != nil:
			m.Meth, m.RMap = e.k.Meth, e.k.RMap
		default:
			skipped++
			continue
		}
		out = append(out, m)
	}
	return out, skipped
}

// Boot is a system restored from a world image, plus everything the
// host needs to finish warming it: the replayed source texts (to seed
// load dedup tables), the re-interned eval programs, and the code
// manifest consumed by Prepromote.
type Boot struct {
	Sys *System
	// Hash identifies the image (hex sha256 of its payload).
	Hash string
	// Sources are the replayed load texts, in load order.
	Sources []string
	// Programs are the image's interned eval programs, re-parsed
	// against the restored world, in image order.
	Programs []*EvalProgram
	// RestoreDuration covers decode, source replay and state restore
	// (not pre-promotion).
	RestoreDuration time.Duration

	manifest []image.RestoredManifest
}

// ManifestLen reports how many code-cache entries the image carries.
func (b *Boot) ManifestLen() int { return len(b.manifest) }

// BootFromImage reads a world image and builds a system from it: the recorded sources are replayed (the image's own prelude
// text first — nothing else is auto-loaded), the saved object state is
// restored on top, and the eval programs are re-parsed. Restored maps
// are ordinary world maps, wired to the same OnMapChange →
// InvalidateMap hook as a cold boot, so post-restore map mutations
// invalidate preloaded code exactly like live compiles. Call
// Prepromote afterwards to rebuild the hot code set before taking
// traffic.
func BootFromImage(r io.Reader, cfg Config, mode TierMode, promoteThreshold int64) (*Boot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading image: %w", err)
	}
	img, err := image.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(img.Sources) == 0 {
		return nil, fmt.Errorf("image records no sources")
	}
	if promoteThreshold <= 0 {
		promoteThreshold = DefaultPromoteThreshold
	}
	t0 := time.Now()
	s, err := newSystem(cfg, mode, promoteThreshold, false)
	if err != nil {
		return nil, err
	}
	for i, src := range img.Sources {
		if err := s.LoadSource(src); err != nil {
			return nil, fmt.Errorf("replaying image source %d: %w", i, err)
		}
	}
	progs := make([]*EvalProgram, len(img.EvalSources))
	meths := make([]*obj.Method, len(img.EvalSources))
	for i, src := range img.EvalSources {
		p, err := s.ParseEval(src)
		if err != nil {
			return nil, fmt.Errorf("re-parsing image eval program %d: %w", i, err)
		}
		progs[i], meths[i] = p, p.meth
	}
	res, err := image.Restore(img, s.world, meths)
	if err != nil {
		return nil, err
	}
	return &Boot{
		Sys:             s,
		Hash:            img.Hash,
		Sources:         append([]string(nil), img.Sources...),
		Programs:        progs,
		RestoreDuration: time.Since(t0),
		manifest:        res.Manifest,
	}, nil
}

// Prepromote re-compiles every manifest entry at its recorded tier
// through the code cache, restoring its hotness counters, so the
// request path finds hot code already resident instead of re-earning
// promotions under load. Blocking; hosts that warm in the background
// run it in a goroutine and gate readiness on its return. Returns how
// many entries compiled and how many failed (a failed entry falls back
// to normal on-demand compilation — warm start is an optimization,
// never a correctness gate).
func (b *Boot) Prepromote(workers int) (compiled, failed int) {
	s := b.Sys
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, ent := range b.manifest {
		wg.Add(1)
		sem <- struct{}{}
		go func(ent image.RestoredManifest) {
			defer func() { <-sem; wg.Done() }()
			ok := s.prepromoteOne(ent)
			mu.Lock()
			if ok {
				compiled++
			} else {
				failed++
			}
			mu.Unlock()
		}(ent)
	}
	wg.Wait()
	return compiled, failed
}

// pipelineFor maps a recorded tier label back to this system's
// pipeline for that tier. "native" is what images saved while the
// closure-threaded top tier existed recorded for their hottest code:
// it ran the optimizing tier's stream, so it re-promotes at optimizing.
func (s *System) pipelineFor(tier string) *core.Pipeline {
	switch tier {
	case core.TierOptimizing.String(), "native":
		return s.pipeOpt
	case core.TierDegraded.String():
		return s.pipeDeg
	default:
		return s.pipeBase
	}
}

func (s *System) prepromoteOne(ent image.RestoredManifest) bool {
	p := s.pipelineFor(ent.Tier)
	strat := uint8(s.Cfg.Strategy)
	var key codecache.Key
	var compile func() (*vm.Code, error)
	if ent.Blk != nil {
		key = codecache.Key{Blk: ent.Blk, Strat: strat}
		compile = func() (*vm.Code, error) { return s.compileBlockAt(p, ent.Blk, ent.UpNames) }
	} else {
		key = codecache.Key{Meth: ent.Meth, RMap: ent.RMap, Strat: strat}
		compile = func() (*vm.Code, error) { return s.compileMethodAt(p, ent.Meth, ent.RMap, nil) }
	}
	c, _, err := s.cache.Get(key, compile)
	if err != nil {
		return false
	}
	// Restore hotness with requested=true: the code is already at its
	// recorded tier, so the promotion that the counters would trigger
	// has in effect already happened.
	c.Hot.Seed(ent.Invocations, ent.Backedges, ent.Requested)
	return true
}
