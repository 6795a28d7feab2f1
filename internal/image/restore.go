package image

import (
	"fmt"
	"slices"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
)

// RestoredManifest is a manifest entry resolved back to live pointers
// in the restored world, ready to be compiled into a code cache.
type RestoredManifest struct {
	Meth    *obj.Method
	RMap    *obj.Map
	Blk     *ast.Block
	UpNames []string

	Tier        string
	Invocations int64
	Backedges   int64
	Requested   bool
}

// Restored reports what Restore wired into the world.
type Restored struct {
	Maps     []*obj.Map
	Manifest []RestoredManifest
	// Extras is the number of objects created beyond the replayed
	// anchors (run-time clones, vectors, and literal instances).
	Extras int
}

// Restore wires img's object state into w. The caller must have built
// w fresh and replayed img.Sources into it, in order, before calling;
// evalMeths[i] must be the scratch method of re-parsing
// img.EvalSources[i].
//
// Restore is two-phase: it resolves and validates every reference —
// including the structural digest of the anchor walk — before mutating
// anything, so an image that does not match the replayed sources (or
// is internally inconsistent despite its checksum) returns an error
// and leaves the world exactly as the replay built it.
func Restore(img *Image, w *obj.World, evalMeths []*obj.Method) (*Restored, error) {
	if len(evalMeths) != len(img.EvalSources) {
		return nil, fmt.Errorf("restore: %d eval methods for %d eval sources", len(evalMeths), len(img.EvalSources))
	}
	anchors, digest := walkAnchors(w)
	if digest != img.WalkDigest {
		return nil, fmt.Errorf("restore: replayed world does not match the image (structure digest mismatch); the image was saved from different sources")
	}
	if len(anchors) != img.NumAnchors {
		return nil, fmt.Errorf("restore: replay produced %d anchors, image recorded %d", len(anchors), img.NumAnchors)
	}

	loadMaps := w.LoadMaps()
	lits := map[*obj.Method][]*ast.ObjectLit{}
	blks := map[*obj.Method][]*ast.Block{}
	resolveOwner := func(ref OwnerRef) (*obj.Method, error) {
		if ref.Eval {
			// EvalIdx was bounds-checked by Decode.
			return evalMeths[ref.EvalIdx], nil
		}
		if ref.LoadOrd >= len(loadMaps) {
			return nil, fmt.Errorf("restore: owner load ordinal %d out of range (%d load maps)", ref.LoadOrd, len(loadMaps))
		}
		m := loadMaps[ref.LoadOrd]
		sl := m.SlotNamed(ref.Sel)
		if sl == nil || sl.Kind != obj.MethodSlot {
			return nil, fmt.Errorf("restore: map %q has no method slot %q", m.Name, ref.Sel)
		}
		return sl.Meth, nil
	}
	ownerLits := func(ref OwnerRef) ([]*ast.ObjectLit, error) {
		m, err := resolveOwner(ref)
		if err != nil {
			return nil, err
		}
		if _, ok := lits[m]; !ok {
			lits[m] = methodLits(m.Ast)
		}
		return lits[m], nil
	}
	ownerBlks := func(ref OwnerRef) ([]*ast.Block, error) {
		m, err := resolveOwner(ref)
		if err != nil {
			return nil, err
		}
		if _, ok := blks[m]; !ok {
			blks[m] = methodBlocks(m.Ast)
		}
		return blks[m], nil
	}

	// Phase 1a: the map table. Rebuilding a run-time map evaluates its
	// literal against the replayed world; recorded slot overrides are
	// applied in phase 2. The stray objects BuildObject creates here
	// are unreachable if a later check fails, so this does not violate
	// the no-partial-world rule: the replayed structure is untouched.
	maps := make([]*obj.Map, len(img.Maps))
	for i, rec := range img.Maps {
		if !rec.Runtime {
			if rec.LoadOrd >= len(loadMaps) {
				return nil, fmt.Errorf("restore: map load ordinal %d out of range (%d load maps)", rec.LoadOrd, len(loadMaps))
			}
			maps[i] = loadMaps[rec.LoadOrd]
			continue
		}
		ls, err := ownerLits(rec.Owner)
		if err != nil {
			return nil, err
		}
		if rec.LitOrd >= len(ls) {
			return nil, fmt.Errorf("restore: literal ordinal %d out of range (%d literals in owner)", rec.LitOrd, len(ls))
		}
		v, err := w.BuildObject(ls[rec.LitOrd])
		if err != nil {
			return nil, fmt.Errorf("restore: rebuilding literal map: %w", err)
		}
		maps[i] = v.Obj().Map
		for _, sv := range rec.SlotVals {
			if sv.Idx >= len(maps[i].Slots) {
				return nil, fmt.Errorf("restore: slot override %d out of range on map %q", sv.Idx, maps[i].Name)
			}
			if k := maps[i].Slots[sv.Idx].Kind; k != obj.ConstSlot && k != obj.ParentSlot {
				return nil, fmt.Errorf("restore: slot override %d on map %q is not a const/parent slot", sv.Idx, maps[i].Name)
			}
		}
	}

	// Phase 1b: the object table — anchors are the replayed objects,
	// extras are created fresh (permanent heap, epoch 0).
	objs := make([]*obj.Object, len(img.Objects))
	for i, rec := range img.Objects {
		m := maps[rec.MapIdx]
		if i < img.NumAnchors {
			if anchors[i].Map != m {
				return nil, fmt.Errorf("restore: anchor %d map mismatch (replayed %q, image %q)", i, anchors[i].Map.Name, m.Name)
			}
			objs[i] = anchors[i]
		} else {
			objs[i] = &obj.Object{Map: m}
		}
		if len(rec.Fields) != m.NFields {
			return nil, fmt.Errorf("restore: object %d has %d fields, map %q declares %d", i, len(rec.Fields), m.Name, m.NFields)
		}
		if len(rec.Elems) > 0 && !m.Indexable {
			return nil, fmt.Errorf("restore: object %d has elements but map %q is not indexable", i, m.Name)
		}
	}

	// Phase 1c: the manifest, resolved against the rebuilt maps and
	// re-parsed eval programs.
	out := &Restored{Maps: maps, Extras: len(img.Objects) - img.NumAnchors}
	for _, rec := range img.Manifest {
		rm := RestoredManifest{
			UpNames:     rec.UpNames,
			Tier:        rec.Tier,
			Invocations: rec.Invocations,
			Backedges:   rec.Backedges,
			Requested:   rec.Requested,
		}
		if rec.Block {
			// A block's names are its closures' cell layout: captures
			// sorted without repeats, self included. Code compiled from
			// any other names would index cells its closures lack.
			inOrder := slices.Contains(rec.UpNames, "self")
			for i := 1; i < len(rec.UpNames); i++ {
				inOrder = inOrder && rec.UpNames[i-1] < rec.UpNames[i]
			}
			if !inOrder {
				return nil, fmt.Errorf("restore: block manifest names %q are not in capture order", rec.UpNames)
			}
			bs, err := ownerBlks(rec.Owner)
			if err != nil {
				return nil, err
			}
			if rec.Ord >= len(bs) {
				return nil, fmt.Errorf("restore: block ordinal %d out of range (%d blocks in owner)", rec.Ord, len(bs))
			}
			rm.Blk = bs[rec.Ord]
		} else if rec.Meth.Eval {
			rm.Meth = evalMeths[rec.Meth.EvalIdx]
		} else {
			m := maps[rec.Meth.MapIdx]
			sl := m.SlotNamed(rec.Meth.Sel)
			if sl == nil || sl.Kind != obj.MethodSlot {
				return nil, fmt.Errorf("restore: manifest method %q missing on map %q", rec.Meth.Sel, m.Name)
			}
			rm.Meth = sl.Meth
		}
		if !rec.Block && rec.RMapIdx >= 0 {
			rm.RMap = maps[rec.RMapIdx]
		}
		out.Manifest = append(out.Manifest, rm)
	}

	// Phase 2: nothing can fail anymore — patch state in. Strings are
	// re-interned by content into the current generation, so restored
	// strings compare Eq with freshly interned ones even though the
	// saving process's intern table (and any generations it dropped)
	// is gone.
	val := func(v Val) obj.Value {
		switch v.Kind {
		case ValInt:
			return obj.Int(v.I)
		case ValStr:
			return obj.Str(v.S)
		case ValObj:
			return obj.Obj(objs[v.Ref])
		default:
			return obj.Nil()
		}
	}
	vals := func(vs []Val) []obj.Value {
		if len(vs) == 0 {
			return nil
		}
		out := make([]obj.Value, len(vs))
		for i, v := range vs {
			out[i] = val(v)
		}
		return out
	}
	for i, rec := range img.Objects {
		objs[i].Fields = vals(rec.Fields)
		objs[i].Elems = vals(rec.Elems)
	}
	for i, rec := range img.Maps {
		for _, sv := range rec.SlotVals {
			maps[i].Slots[sv.Idx].Value = val(sv.V)
		}
	}
	if w.ShapeTracking {
		// The direct Fields writes above bypassed NoteFieldStore; seed
		// the per-slot type tags from the restored values so typed-shape
		// facts are available (and correct) from the first post-boot run.
		for _, o := range objs {
			for idx, f := range o.Fields {
				w.NoteFieldStore(o.Map, idx, f)
			}
		}
	}
	return out, nil
}
