package image

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Wire layout: an 8-byte magic (which carries the format version),
// the sha256 of the payload, then the payload — uvarint/varint scalars
// and length-prefixed strings throughout. Decode verifies the checksum
// before parsing and bounds-checks every count against the bytes that
// remain, so truncated or bit-flipped images fail cleanly instead of
// panicking or over-allocating.
const imageMagic = "SELFIMG1"

type writer struct {
	b   bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *writer) u(v uint64)  { w.b.Write(w.tmp[:binary.PutUvarint(w.tmp[:], v)]) }
func (w *writer) i(v int64)   { w.b.Write(w.tmp[:binary.PutVarint(w.tmp[:], v)]) }
func (w *writer) s(s string)  { w.u(uint64(len(s))); w.b.WriteString(s) }
func (w *writer) byte(b byte) { w.b.WriteByte(b) }
func (w *writer) bool(v bool) {
	if v {
		w.b.WriteByte(1)
	} else {
		w.b.WriteByte(0)
	}
}

func (w *writer) val(v Val) {
	w.byte(v.Kind)
	switch v.Kind {
	case ValInt:
		w.i(v.I)
	case ValStr:
		w.s(v.S)
	case ValObj:
		w.u(uint64(v.Ref))
	}
}

func (w *writer) owner(o OwnerRef) {
	w.bool(o.Eval)
	if o.Eval {
		w.u(uint64(o.EvalIdx))
	} else {
		w.u(uint64(o.LoadOrd))
		w.s(o.Sel)
	}
}

// Encode serializes img (all fields except Hash, which it sets) to the
// wire format.
func Encode(img *Image) []byte {
	var w writer
	w.u(uint64(len(img.Sources)))
	for _, s := range img.Sources {
		w.s(s)
	}
	w.u(uint64(len(img.EvalSources)))
	for _, s := range img.EvalSources {
		w.s(s)
	}
	w.b.Write(img.WalkDigest[:])

	w.u(uint64(len(img.Maps)))
	for _, m := range img.Maps {
		w.bool(m.Runtime)
		if !m.Runtime {
			w.u(uint64(m.LoadOrd))
			continue
		}
		w.owner(m.Owner)
		w.u(uint64(m.LitOrd))
		w.u(uint64(len(m.SlotVals)))
		for _, sv := range m.SlotVals {
			w.u(uint64(sv.Idx))
			w.val(sv.V)
		}
	}

	w.u(uint64(len(img.Objects)))
	w.u(uint64(img.NumAnchors))
	for _, o := range img.Objects {
		w.u(uint64(o.MapIdx))
		w.u(uint64(len(o.Fields)))
		for _, v := range o.Fields {
			w.val(v)
		}
		w.u(uint64(len(o.Elems)))
		for _, v := range o.Elems {
			w.val(v)
		}
	}

	w.u(uint64(len(img.Manifest)))
	for _, m := range img.Manifest {
		w.bool(m.Block)
		if m.Block {
			w.owner(m.Owner)
			w.u(uint64(m.Ord))
			w.u(uint64(len(m.UpNames)))
			for _, n := range m.UpNames {
				w.s(n)
			}
		} else {
			w.bool(m.Meth.Eval)
			if m.Meth.Eval {
				w.u(uint64(m.Meth.EvalIdx))
			} else {
				w.u(uint64(m.Meth.MapIdx))
				w.s(m.Meth.Sel)
			}
			w.i(int64(m.RMapIdx))
		}
		w.s(m.Tier)
		w.i(m.Invocations)
		w.i(m.Backedges)
		w.bool(m.Requested)
	}

	payload := w.b.Bytes()
	sum := sha256.Sum256(payload)
	img.Hash = hex.EncodeToString(sum[:])
	out := make([]byte, 0, len(imageMagic)+len(sum)+len(payload))
	out = append(out, imageMagic...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) corrupt(what string) error {
	return fmt.Errorf("corrupt image: %s at offset %d", what, r.off)
}

func (r *reader) u() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad uvarint")
	}
	r.off += n
	return v, nil
}

func (r *reader) i() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad varint")
	}
	r.off += n
	return v, nil
}

// count reads a collection length and bounds it by the bytes left:
// every encoded element occupies at least one byte, so any larger
// count is corruption — rejecting it here keeps hostile inputs from
// driving huge allocations.
func (r *reader) count(what string) (int, error) {
	v, err := r.u()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, r.corrupt(what + " count exceeds remaining bytes")
	}
	return int(v), nil
}

// index reads a non-negative index bounded by limit (exclusive).
func (r *reader) index(what string, limit int) (int, error) {
	v, err := r.u()
	if err != nil {
		return 0, err
	}
	if v >= uint64(limit) {
		return 0, r.corrupt(what + " index out of range")
	}
	return int(v), nil
}

func (r *reader) s() (string, error) {
	n, err := r.count("string")
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *reader) byte() (byte, error) {
	if r.rem() < 1 {
		return 0, r.corrupt("unexpected end")
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, r.corrupt("bad bool")
	}
	return b == 1, nil
}

func (r *reader) val(numObjects int) (Val, error) {
	k, err := r.byte()
	if err != nil {
		return Val{}, err
	}
	v := Val{Kind: k}
	switch k {
	case ValNil:
	case ValInt:
		if v.I, err = r.i(); err != nil {
			return Val{}, err
		}
	case ValStr:
		if v.S, err = r.s(); err != nil {
			return Val{}, err
		}
	case ValObj:
		if v.Ref, err = r.index("object ref", numObjects); err != nil {
			return Val{}, err
		}
	default:
		return Val{}, r.corrupt("bad value kind")
	}
	return v, nil
}

func (r *reader) owner(numEvals int) (OwnerRef, error) {
	var o OwnerRef
	var err error
	if o.Eval, err = r.bool(); err != nil {
		return o, err
	}
	if o.Eval {
		o.EvalIdx, err = r.index("eval owner", numEvals)
		return o, err
	}
	v, err := r.u()
	if err != nil {
		return o, err
	}
	o.LoadOrd = int(v) // bound against the replayed world at restore
	if o.LoadOrd < 0 {
		return o, r.corrupt("load ordinal overflow")
	}
	o.Sel, err = r.s()
	return o, err
}

// Decode parses and validates an encoded image. Any truncation,
// bit-flip or internal inconsistency yields an error; Decode never
// panics on hostile input and never returns a partially valid image.
func Decode(data []byte) (*Image, error) {
	if len(data) < len(imageMagic)+sha256.Size {
		return nil, fmt.Errorf("corrupt image: %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("not a world image (bad magic)")
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[len(imageMagic):])
	payload := data[len(imageMagic)+sha256.Size:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("corrupt image: payload checksum mismatch")
	}

	img := &Image{Hash: hex.EncodeToString(sum[:])}
	r := &reader{b: payload}

	n, err := r.count("sources")
	if err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		s, err := r.s()
		if err != nil {
			return nil, err
		}
		img.Sources = append(img.Sources, s)
	}
	if n, err = r.count("eval sources"); err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		s, err := r.s()
		if err != nil {
			return nil, err
		}
		img.EvalSources = append(img.EvalSources, s)
	}
	if r.rem() < len(img.WalkDigest) {
		return nil, r.corrupt("truncated digest")
	}
	copy(img.WalkDigest[:], r.b[r.off:])
	r.off += len(img.WalkDigest)

	numMaps, err := r.count("maps")
	if err != nil {
		return nil, err
	}
	for k := 0; k < numMaps; k++ {
		var m MapRec
		if m.Runtime, err = r.bool(); err != nil {
			return nil, err
		}
		if !m.Runtime {
			v, err := r.u()
			if err != nil {
				return nil, err
			}
			m.LoadOrd = int(v)
			if m.LoadOrd < 0 {
				return nil, r.corrupt("load ordinal overflow")
			}
			img.Maps = append(img.Maps, m)
			continue
		}
		if m.Owner, err = r.owner(len(img.EvalSources)); err != nil {
			return nil, err
		}
		v, err := r.u()
		if err != nil {
			return nil, err
		}
		m.LitOrd = int(v)
		if m.LitOrd < 0 {
			return nil, r.corrupt("literal ordinal overflow")
		}
		nsv, err := r.count("slot overrides")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nsv; j++ {
			var sv SlotVal
			iv, err := r.u()
			if err != nil {
				return nil, err
			}
			sv.Idx = int(iv)
			// Object refs inside map slot overrides are validated in
			// the post-pass once the object count is known.
			if sv.V, err = r.val(1 << 30); err != nil {
				return nil, err
			}
			m.SlotVals = append(m.SlotVals, sv)
		}
		img.Maps = append(img.Maps, m)
	}

	numObjs, err := r.count("objects")
	if err != nil {
		return nil, err
	}
	na, err := r.u()
	if err != nil {
		return nil, err
	}
	if na > uint64(numObjs) {
		return nil, r.corrupt("anchor count exceeds object count")
	}
	img.NumAnchors = int(na)
	for k := 0; k < numObjs; k++ {
		var o ObjRec
		if o.MapIdx, err = r.index("object map", numMaps); err != nil {
			return nil, err
		}
		nf, err := r.count("fields")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nf; j++ {
			v, err := r.val(numObjs)
			if err != nil {
				return nil, err
			}
			o.Fields = append(o.Fields, v)
		}
		ne, err := r.count("elems")
		if err != nil {
			return nil, err
		}
		for j := 0; j < ne; j++ {
			v, err := r.val(numObjs)
			if err != nil {
				return nil, err
			}
			o.Elems = append(o.Elems, v)
		}
		img.Objects = append(img.Objects, o)
	}

	numMan, err := r.count("manifest")
	if err != nil {
		return nil, err
	}
	for k := 0; k < numMan; k++ {
		var m ManifestRec
		if m.Block, err = r.bool(); err != nil {
			return nil, err
		}
		if m.Block {
			if m.Owner, err = r.owner(len(img.EvalSources)); err != nil {
				return nil, err
			}
			v, err := r.u()
			if err != nil {
				return nil, err
			}
			m.Ord = int(v)
			if m.Ord < 0 {
				return nil, r.corrupt("block ordinal overflow")
			}
			nu, err := r.count("upnames")
			if err != nil {
				return nil, err
			}
			for j := 0; j < nu; j++ {
				s, err := r.s()
				if err != nil {
					return nil, err
				}
				m.UpNames = append(m.UpNames, s)
			}
		} else {
			if m.Meth.Eval, err = r.bool(); err != nil {
				return nil, err
			}
			if m.Meth.Eval {
				if m.Meth.EvalIdx, err = r.index("manifest eval method", len(img.EvalSources)); err != nil {
					return nil, err
				}
			} else {
				if m.Meth.MapIdx, err = r.index("manifest method map", numMaps); err != nil {
					return nil, err
				}
				if m.Meth.Sel, err = r.s(); err != nil {
					return nil, err
				}
			}
			rm, err := r.i()
			if err != nil {
				return nil, err
			}
			if rm < -1 || rm >= int64(numMaps) {
				return nil, r.corrupt("manifest rmap index out of range")
			}
			m.RMapIdx = int(rm)
		}
		if m.Tier, err = r.s(); err != nil {
			return nil, err
		}
		if m.Invocations, err = r.i(); err != nil {
			return nil, err
		}
		if m.Backedges, err = r.i(); err != nil {
			return nil, err
		}
		if m.Requested, err = r.bool(); err != nil {
			return nil, err
		}
		img.Manifest = append(img.Manifest, m)
	}
	if r.rem() != 0 {
		return nil, r.corrupt("trailing bytes")
	}

	// Post-pass: map slot overrides could not bound their object refs
	// while the object count was still unread.
	for _, m := range img.Maps {
		for _, sv := range m.SlotVals {
			if sv.V.Kind == ValObj && sv.V.Ref >= numObjs {
				return nil, fmt.Errorf("corrupt image: map slot override references object %d of %d", sv.V.Ref, numObjs)
			}
		}
	}
	return img, nil
}
