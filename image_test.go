package selfgo

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"selfgo/internal/image"
	"selfgo/internal/obj"
)

// saveRestore snapshots sys (with the given interned eval programs)
// and boots a fresh system from the bytes, failing the test on any
// error. The restored system uses the same config and tier mode.
func saveRestore(t *testing.T, sys *System, progs []*EvalProgram, mode TierMode) *Boot {
	t.Helper()
	var buf bytes.Buffer
	info, err := sys.SaveImage(&buf, progs)
	if err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	if info.Bytes != buf.Len() {
		t.Fatalf("ImageInfo.Bytes = %d, wrote %d", info.Bytes, buf.Len())
	}
	boot, err := BootFromImage(&buf, sys.Cfg, mode, sys.promoteThreshold)
	if err != nil {
		t.Fatalf("BootFromImage: %v", err)
	}
	if boot.Hash != info.Hash {
		t.Fatalf("restored hash %s != saved hash %s", boot.Hash, info.Hash)
	}
	return boot
}

// TestImageRoundTripConformance is the round-trip oracle: a system
// saved cold and restored must run every conformance program with
// bit-identical results and RunStats to the system it was saved from,
// and force the same number of compiles.
func TestImageRoundTripConformance(t *testing.T) {
	for _, p := range conformancePrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			fresh, err := NewTieredSystem(NewSELF, ModeOpt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.LoadSource(p.src); err != nil {
				t.Fatal(err)
			}
			boot := saveRestore(t, fresh, nil, ModeOpt)

			want, err := fresh.Call(p.sel, p.args...)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			got, err := boot.Sys.Call(p.sel, p.args...)
			if err != nil {
				t.Fatalf("restored run: %v", err)
			}
			if !got.Value.Eq(want.Value) {
				t.Fatalf("restored value %v != fresh value %v", got.Value, want.Value)
			}
			if !reflect.DeepEqual(got.Run, want.Run) {
				t.Fatalf("RunStats diverged:\nfresh    %+v\nrestored %+v", want.Run, got.Run)
			}
			fs := fresh.CacheStats()
			rs := boot.Sys.CacheStats()
			if fs.Misses != rs.Misses || fs.Evicted != rs.Evicted {
				t.Fatalf("compile counters diverged: fresh misses=%d evicted=%d, restored misses=%d evicted=%d",
					fs.Misses, fs.Evicted, rs.Misses, rs.Evicted)
			}
		})
	}
}

// warmSrc is a small program with enough structure to promote: a
// mutable accumulator object and a block-heavy loop.
const warmSrc = `
acc = (| parent* = lobby. total <- 0.
    add: n = ( total: total + n. self ).
    reset = ( total: 0. self ) |).
churn: n = ( | a |
    a: acc _Clone reset.
    1 upTo: n Do: [ :i | a add: i * 2 ].
    a total ).`

// TestImageWarmDifferential proves warm restore changes nothing
// observable: two identically-warmed systems, one of which goes
// through save/restore/prepromote, answer the same workload with
// bit-identical values and RunStats — and the restored one answers it
// entirely from pre-promoted code (zero cache misses).
func TestImageWarmDifferential(t *testing.T) {
	mkWarm := func() *System {
		t.Helper()
		sys, err := NewTieredSystem(NewSELF, ModeOpt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(warmSrc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Call("churn:", IntValue(50)); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	ref := mkWarm()
	saved := mkWarm()
	boot := saveRestore(t, saved, nil, ModeOpt)
	if boot.ManifestLen() == 0 {
		t.Fatal("warmed system saved an empty code manifest")
	}
	compiled, failed := boot.Prepromote(4)
	if failed != 0 {
		t.Fatalf("%d manifest entries failed to pre-promote", failed)
	}
	if compiled != boot.ManifestLen() {
		t.Fatalf("pre-promoted %d of %d manifest entries", compiled, boot.ManifestLen())
	}

	before := boot.Sys.CacheStats()
	want, err := ref.Call("churn:", IntValue(50))
	if err != nil {
		t.Fatal(err)
	}
	got, err := boot.Sys.Call("churn:", IntValue(50))
	if err != nil {
		t.Fatal(err)
	}
	after := boot.Sys.CacheStats()
	if got.Value.I() != want.Value.I() {
		t.Fatalf("restored value %d != reference %d", got.Value.I(), want.Value.I())
	}
	if !reflect.DeepEqual(got.Run, want.Run) {
		t.Fatalf("RunStats diverged:\nreference %+v\nrestored  %+v", want.Run, got.Run)
	}
	if after.Misses != before.Misses {
		t.Fatalf("restored system recompiled under traffic: %d new misses after pre-promotion",
			after.Misses-before.Misses)
	}
}

// TestImageManifestRestoresTiers checks the manifest round-trips tier
// and hotness: an adaptively-promoted method comes back at its
// promoted tier without re-earning the promotion, and so does one an
// older image recorded at the deleted native tier.
func TestImageManifestRestoresTiers(t *testing.T) {
	sys, err := NewTieredSystem(NewSELF, ModeAdaptive, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(warmSrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := sys.Call("churn:", IntValue(20)); err != nil {
			t.Fatal(err)
		}
	}
	sys.DrainPromotions()
	if n := sys.TierCounts()["optimizing"]; n == 0 {
		t.Fatal("warmup never promoted anything; test needs a hot method")
	}

	boot := saveRestore(t, sys, nil, ModeAdaptive)
	if compiled, failed := boot.Prepromote(2); compiled == 0 || failed != 0 {
		t.Fatalf("Prepromote: compiled=%d failed=%d", compiled, failed)
	}
	// The restored system has run nothing, yet its compile log already
	// shows optimizing-tier compiles: the manifest carried the tier.
	if n := boot.Sys.TierCounts()["optimizing"]; n == 0 {
		t.Fatal("pre-promotion compiled nothing at the optimizing tier")
	}
	// And the seeded hotness keeps it there: more traffic must not
	// re-trigger promotions for the already-promoted keys.
	before := boot.Sys.CacheStats()
	for i := 0; i < 30; i++ {
		if _, err := boot.Sys.Call("churn:", IntValue(20)); err != nil {
			t.Fatal(err)
		}
	}
	boot.Sys.DrainPromotions()
	after := boot.Sys.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("restored hot code was recompiled: %d new misses", after.Misses-before.Misses)
	}

	// Older images recorded their hottest methods at "native", the
	// deleted closure-threaded tier that ran the optimizing stream: such
	// an entry comes back at optimizing, not at baseline where an unknown
	// label would land.
	old := saveRestore(t, sys, nil, ModeAdaptive)
	i := slices.IndexFunc(old.manifest, func(e image.RestoredManifest) bool { return e.Meth != nil })
	if i < 0 {
		t.Fatal("the saved manifest holds no method entry")
	}
	old.manifest = old.manifest[i : i+1]
	old.manifest[0].Tier = "native"
	if compiled, failed := old.Prepromote(1); compiled != 1 || failed != 0 {
		t.Fatalf("Prepromote of a native entry: compiled=%d failed=%d, want 1 and 0", compiled, failed)
	}
	if tc := old.Sys.TierCounts(); len(tc) != 1 || tc[TierOptimizing.String()] != 1 {
		t.Fatalf("a %q manifest entry compiled as %v, want one optimizing compile", "native", tc)
	}
}

// TestImageReclassificationOracle: mutating a map after restore must
// invalidate restored compiled code exactly like it does on a world
// that was never snapshotted — same values, same RunStats, same
// compile and eviction counters.
func TestImageReclassificationOracle(t *testing.T) {
	const v1 = `
	shape = (| parent* = lobby. n <- 7.
	    cost = ( n * 2 ) |).
	tally = ( | s <- 0 |
	    1 to: 10 Do: [ :i | s: s + shape cost ].
	    s ).`
	// v2 rebinds shape: the lobby map changes shape, so every
	// customization compiled against it must be invalidated.
	const v2 = `shape = (| parent* = lobby. n <- 7. cost = ( n * 3 ) |).`

	runSeq := func(sys *System) (int64, int64, RunStats, RunStats) {
		t.Helper()
		r1, err := sys.Call("tally")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadSource(v2); err != nil {
			t.Fatal(err)
		}
		r2, err := sys.Call("tally")
		if err != nil {
			t.Fatal(err)
		}
		return r1.Value.I(), r2.Value.I(), r1.Run, r2.Run
	}

	straight, err := NewTieredSystem(NewSELF, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := straight.LoadSource(v1); err != nil {
		t.Fatal(err)
	}
	sv1, sv2, sr1, sr2 := runSeq(straight)
	if sv1 != 140 || sv2 != 210 {
		t.Fatalf("straight-through values %d/%d, want 140/210", sv1, sv2)
	}

	snapped, err := NewTieredSystem(NewSELF, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapped.LoadSource(v1); err != nil {
		t.Fatal(err)
	}
	boot := saveRestore(t, snapped, nil, ModeOpt)
	rv1, rv2, rr1, rr2 := runSeq(boot.Sys)

	if rv1 != sv1 || rv2 != sv2 {
		t.Fatalf("restored values %d/%d != straight-through %d/%d", rv1, rv2, sv1, sv2)
	}
	if !reflect.DeepEqual(rr1, sr1) || !reflect.DeepEqual(rr2, sr2) {
		t.Fatalf("RunStats diverged across snapshot boundary:\nstraight %+v / %+v\nrestored %+v / %+v",
			sr1, sr2, rr1, rr2)
	}
	ss := straight.CacheStats()
	rs := boot.Sys.CacheStats()
	if ss.Misses != rs.Misses || ss.Evicted != rs.Evicted {
		t.Fatalf("compile counters diverged: straight misses=%d evicted=%d, restored misses=%d evicted=%d",
			ss.Misses, ss.Evicted, rs.Misses, rs.Evicted)
	}
	if rs.Evicted == 0 {
		t.Fatal("redefinition evicted nothing on the restored world; invalidation hook not wired")
	}
}

// TestImageEvalProgramsRoundTrip: interned eval programs ride the
// image and come back runnable with identical results.
func TestImageEvalPrograms(t *testing.T) {
	sys, err := NewTieredSystem(NewSELF, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(warmSrc); err != nil {
		t.Fatal(err)
	}
	p, err := sys.ParseEval("| a | a: acc _Clone reset. 1 upTo: 9 Do: [ :i | a add: i ]. a total")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.EvalProgramCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	boot := saveRestore(t, sys, []*EvalProgram{p}, ModeOpt)
	if len(boot.Programs) != 1 {
		t.Fatalf("restored %d eval programs, want 1", len(boot.Programs))
	}
	if boot.Programs[0].Source != p.Source {
		t.Fatalf("restored program source %q != %q", boot.Programs[0].Source, p.Source)
	}
	got, err := boot.Sys.EvalProgramCtx(context.Background(), boot.Programs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Value.I() != want.Value.I() {
		t.Fatalf("restored eval result %d != %d", got.Value.I(), want.Value.I())
	}
	if !reflect.DeepEqual(got.Run, want.Run) {
		t.Fatalf("eval RunStats diverged:\nfresh    %+v\nrestored %+v", want.Run, got.Run)
	}
}

// TestImageInternGenerationEq is the intern-bound regression: strings
// serialized by content must restore to values Eq-equal to the
// original AND to freshly-interned strings, even when the intern
// generation that held the original pointers has been dropped between
// save and restore.
func TestImageInternGenerationEq(t *testing.T) {
	const probe = "image-gen-probe"
	sys, err := NewTieredSystem(NewSELF, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource("tag = (| parent* = lobby. label = '" + probe + "' |). getTag = ( tag )."); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Call("getTag")
	if err != nil {
		t.Fatal(err)
	}
	label, ok := obj.Lookup(want.Value.Obj().Map, "label")
	if !ok {
		t.Fatal("tag object lost its label slot")
	}
	original := label.Slot.Value

	var buf bytes.Buffer
	if _, err := sys.SaveImage(&buf, nil); err != nil {
		t.Fatal(err)
	}

	// Drop the intern generation that holds probe's canonical pointer:
	// churn well past one generation's capacity.
	for i := 0; i < (1<<16)+64; i++ {
		obj.Str("image-churn-" + strings.Repeat("x", 1+i%7) + string(rune('a'+i%26)) + itoa(i))
	}

	boot, err := BootFromImage(&buf, sys.Cfg, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := boot.Sys.Call("getTag")
	if err != nil {
		t.Fatal(err)
	}
	rl, ok := obj.Lookup(got.Value.Obj().Map, "label")
	if !ok {
		t.Fatal("restored tag object lost its label slot")
	}
	restored := rl.Slot.Value
	if restored.S() != probe {
		t.Fatalf("restored label %q, want %q", restored.S(), probe)
	}
	if !restored.Eq(original) {
		t.Fatal("restored string not Eq to its pre-snapshot value across an intern-generation drop")
	}
	if !restored.Eq(obj.Str(probe)) {
		t.Fatal("restored string not Eq to a freshly interned copy of the same content")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestImageRefusesDirtyWorld: a world whose source log is poisoned by
// a half-applied load must refuse to save.
func TestImageRefusesDirtyWorld(t *testing.T) {
	sys, err := NewTieredSystem(NewSELF, ModeOpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.sources.markDirty()
	if _, err := sys.SaveImage(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("SaveImage succeeded on a dirty source log")
	}
}

// TestBootFromImageRejectsGarbage: hostile bytes error cleanly — among
// them a well-formed image whose block manifest entry names its cells
// out of capture order, which would compile block code against a cell
// layout its closures do not have.
func TestBootFromImageRejectsGarbage(t *testing.T) {
	sys := newSys(t, ST80, `go = ( | c <- 0. blk | blk: [ c: c + 1 ]. blk value. c ).`)
	if _, err := sys.Call("go"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sys.SaveImage(&buf, nil); err != nil {
		t.Fatal(err)
	}
	img, err := image.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(img.Manifest, func(m image.ManifestRec) bool { return m.Block })
	if i < 0 || !slices.Equal(img.Manifest[i].UpNames, []string{"c", "self"}) {
		t.Fatalf("want a block entry with cells [c self], manifest %+v", img.Manifest)
	}
	img.Manifest[i].UpNames = []string{"self", "c"}
	permuted := image.Encode(img)

	for _, data := range [][]byte{
		nil,
		[]byte("not an image"),
		[]byte("SELFIMG1"),
		append([]byte("SELFIMG1"), make([]byte, 32)...),
		permuted,
	} {
		if _, err := BootFromImage(bytes.NewReader(data), ST80, ModeOpt, 0); err == nil {
			t.Fatalf("BootFromImage accepted %d garbage bytes", len(data))
		}
	}
}
