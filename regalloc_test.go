package selfgo_test

import (
	"fmt"
	"testing"

	"selfgo"
)

// TestRegAllocChecked runs vm.CheckAllocation — the allocator's
// independent oracle, applied by the matrix's runner to every Code a
// cell assembles — over everything the benchmarks and conformance
// programs compile, under every preset, both eager tiers and all three
// strategies. Each preset's own cell (optimizing tier, split) runs the
// programs to completion; the other cells are the compile digest's,
// which stop each program after its first 300k instructions, by which
// time the long-running benchmarks have compiled what they compile and
// are only looping.
func TestRegAllocChecked(t *testing.T) {
	all := digestCells(shipped, strategies)
	for i := 0; i < len(all); i += len(corpus) {
		cs := all[i : i+len(corpus)]
		c0 := cs[0]
		own := c0.cfg.Strategy == selfgo.StrategySplit && c0.mode == selfgo.ModeOpt
		for j := range cs {
			if own { // each preset's own cell runs to completion
				cs[j].budget = selfgo.Budget{}
			}
		}
		if cs = reduce(cs); len(cs) == 0 {
			continue
		}
		t.Run(fmt.Sprintf("%s/%s/%s", c0.cfg.Name, c0.cfg.Strategy, c0.mode), func(t *testing.T) {
			for _, c := range cs {
				o := get(t, c)
				if o.Msg != "" && (o.Kind != selfgo.KindOutOfFuel || own) {
					t.Errorf("%s: %s", c, o.Msg)
				}
				if len(o.Codes) == 0 {
					t.Errorf("%s assembled no code", c)
				}
			}
		})
	}
}

// TestRegAllocBitIdentical: register allocation is a renaming, so a
// run on allocated code and a run on the raw linearization must agree
// on the value, the whole RunStats, the compile record and — for the
// faulting programs — kind, message and every backtrace frame, pcs
// included; and both compile the same code. Under the versioning
// strategies a dead register's stale fact no longer splits contexts,
// so the BBV counters may only fall (and with fewer cap hits more
// tests are elided); there the value and the fault are compared.
func TestRegAllocBitIdentical(t *testing.T) {
	progs := append(append([]*program(nil), corpus...), faults...)
	for _, cfg := range []selfgo.Config{selfgo.NewSELF, selfgo.ST80, selfgo.OptimizedC,
		withStrategy(selfgo.NewSELF, selfgo.StrategyBBV), withStrategy(selfgo.NewSELF, selfgo.StrategyBoth)} {
		var cs []cell
		for _, c := range cells(progs, raw, cfg) {
			if c.p.name != "puzzle" || cfg.Name == selfgo.NewSELF.Name { // half the suite's instructions; once is enough
				cs = append(cs, c)
			}
		}
		if cs = reduce(cs); len(cs) == 0 {
			continue
		}
		t.Run(cfg.Name, func(t *testing.T) {
			for _, c := range cs {
				if cfg.Strategy == selfgo.StrategySplit {
					identical(t, c)
					continue
				}
				rawO, alloc := get(t, c), get(t, c.as(shipped))
				sameCode(t, c, rawO, alloc)
				if alloc.Run.BBVVersions > rawO.Run.BBVVersions || alloc.Run.BBVCapHits > rawO.Run.BBVCapHits {
					t.Errorf("%s: versions %d / cap hits %d rose from %d / %d", c,
						alloc.Run.BBVVersions, alloc.Run.BBVCapHits, rawO.Run.BBVVersions, rawO.Run.BBVCapHits)
				}
				r, a := rawO.observed, alloc.observed
				r.Run, a.Run = selfgo.RunStats{}, selfgo.RunStats{}
				same(t, c, r, a)
			}
		})
	}
}

// FuzzRegAllocDifferential feeds arbitrary program text to allocated
// and raw code under a tight budget, checking every allocation on the
// way, and fails on any observable divergence: value, RunStats, fault
// kind, message or backtrace (pcs included — the two sides fuse
// differently, raw code having no self-moves to absorb, and a backtrace
// names pcs of the code as assembled). Registered in ci.sh's fuzz smoke
// stage.
func FuzzRegAllocDifferential(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		identical(t, evalCell(src, selfgo.NewSELF).as(raw))
	})
}

// TestCoalescingCostsNoFrameStorage: coalescing copies gives a class of
// registers one slot, which can only cost a frame slots, never save
// them — so it is pinned that it costs (next to) none. Over the Codes
// the 21 benchmarks compile under new SELF the slots sum to no more
// than 5% above the 658 they took before copies were coalesced, and no
// Code needs a bigger frame size class (pool.go: powers of two from 8)
// than it did then; widthBefore lists every Code that was past the
// smallest class.
func TestCoalescingCostsNoFrameStorage(t *testing.T) {
	widthBefore := map[string]int{
		"lobby>>permGen:N:": 9, "lobby>>towersBench": 15, "lobby>>towMove:From:To:Via:": 24,
		"lobby>>qnTry:": 10, "lobby>>intmmBench": 15, "lobby>>puzzleBench": 21,
		"lobby>>pzPlace:At:": 10, "lobby>>pzRemove:At:": 10, "lobby>>quickBench": 13,
		"lobby>>qsSort:Lo:Hi:": 11, "lobby>>bubbleBench": 10, "lobby>>treeBench": 12,
		"lobby>>trInsert:At:": 9, "obj@2:12>>permute:": 9, "obj@16:14>>move:From:To:Via:": 9,
		"obj@2:15>>try:": 10, "lobby>>intmmOOBench": 17, "block@22:27": 9,
		"lobby>>quickOOBench": 24, "obj@2:12>>quickLo:Hi:": 10, "lobby>>bubbleOOBench": 15,
		"lobby>>treeOOBench": 10, "lobby>>sieveBench": 9, "obj@149:19>>runPacket:": 9,
	}
	class := func(n int) int {
		c := 8
		for c < n {
			c <<= 1
		}
		return c
	}
	total, codes := 0, 0
	for _, c := range cells(benchmarks, shipped, selfgo.NewSELF) {
		for _, cs := range get(t, c).Codes {
			total += cs.Regs
			codes++
			before, ok := widthBefore[cs.Name]
			if !ok {
				before = 8
			}
			if class(cs.Regs) > class(before) {
				t.Errorf("%s takes %d slots (size class %d), took %d (class %d) before coalescing",
					cs.Name, cs.Regs, class(cs.Regs), before, class(before))
			}
		}
	}
	t.Logf("%d Codes, %d slots", codes, total)
	if codes != 103 {
		t.Errorf("the suite compiled %d Codes, not the 103 the bound was taken over", codes)
	}
	if limit := 658 * 105 / 100; total > limit {
		t.Errorf("the suite's Codes take %d slots, more than %d (658 before coalescing, +5%%)", total, limit)
	}
}
