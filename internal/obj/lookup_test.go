package obj

import (
	"fmt"
	"testing"
)

// lookupOracle is message lookup as it was written before Lookup went
// allocation-free: the same search over a heap visited set. FuzzLookup
// holds Lookup to it.
func lookupOracle(m *Map, sel string, seen map[*Map]bool) (LookupResult, bool) {
	if m == nil || seen[m] {
		return LookupResult{}, false
	}
	seen[m] = true
	if s := m.SlotNamed(sel); s != nil {
		return LookupResult{Slot: s, Map: m}, true
	}
	for i := range m.Slots {
		if m.Slots[i].Kind != ParentSlot {
			continue
		}
		pv := m.Slots[i].Value
		if pv.K() != KObj {
			continue
		}
		if r, ok := lookupOracle(pv.Obj().Map, sel, seen); ok {
			if r.Holder == nil {
				r.Holder = pv.Obj()
			}
			return r, true
		}
	}
	return LookupResult{}, false
}

// TestLookupAllocatesNothing: a hit three parents deep, a miss and a
// search through a parent cycle cost no Go allocation.
func TestLookupAllocatesNothing(t *testing.T) {
	w := loadWorld(t, `
		a = (| x = ( 1 ) |).
		b = (| pb* = a |).
		c = (| pc* = b |).
		d = (| pd* = c |).
		e = (| pe* = lobby |).
	`)
	dv, _ := w.GlobalValue("d")
	ev, _ := w.GlobalValue("e")
	w.addSlot(w.Lobby.Map, Slot{Name: "cyc", Kind: ParentSlot, Value: ev})
	av, _ := w.GlobalValue("a")
	if r, ok := Lookup(dv.Obj().Map, "x"); !ok || r.Map != av.Obj().Map {
		t.Fatalf("x from d = (%+v, %v), want a's slot", r, ok)
	}
	for _, c := range []struct {
		name string
		m    *Map
		sel  string
	}{
		{"hit three parents deep", dv.Obj().Map, "x"},
		{"miss", dv.Obj().Map, "noSuchMessage"},
		{"cycle", ev.Obj().Map, "noSuchMessage"},
	} {
		if n := testing.AllocsPerRun(100, func() { Lookup(c.m, c.sel) }); n != 0 {
			t.Errorf("%s: %.1f allocations per lookup, want 0", c.name, n)
		}
	}
}

// TestLookupDiamond: an ancestor reachable along two paths is entered
// once; the first depth-first match wins, even when the second path
// would have reached a nearer definition.
func TestLookupDiamond(t *testing.T) {
	w := loadWorld(t, `
		top = (| m = ( 1 ). n = ( 1 ) |).
		left = (| pl* = top |).
		right = (| pr* = top. n = ( 2 ). o = ( 3 ) |).
		kid = (| pa* = left. pb* = right |).
	`)
	kv, _ := w.GlobalValue("kid")
	topv, _ := w.GlobalValue("top")
	rightv, _ := w.GlobalValue("right")
	r, ok := Lookup(kv.Obj().Map, "m")
	if !ok || r.Map != topv.Obj().Map || r.Holder != topv.Obj() {
		t.Fatalf("m = (%+v, %v), want top's slot, held by top", r, ok)
	}
	// n: left's path reaches top's n first, shadowing right's own n.
	r, ok = Lookup(kv.Obj().Map, "n")
	if !ok || r.Map != topv.Obj().Map {
		t.Fatalf("n = (%+v, %v), want top's (first depth-first match)", r, ok)
	}
	// o: top, entered through left, is skipped through right.
	r, ok = Lookup(kv.Obj().Map, "o")
	if !ok || r.Map != rightv.Obj().Map || r.Holder != rightv.Obj() {
		t.Fatalf("o = (%+v, %v), want right's slot", r, ok)
	}
}

// buildLookupGraph decodes a random parent graph: up to 24 maps, each
// with one instance, and a slot list mixing constants named a–d and
// parent slots to any instance (cycles, self-parents and diamonds
// included) or to nil.
func buildLookupGraph(data []byte) []*Map {
	w := NewWorld()
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%24
	maps := make([]*Map, n)
	objs := make([]*Object, n)
	for i := range maps {
		maps[i] = w.newMap(fmt.Sprintf("m%d", i))
		objs[i] = &Object{Map: maps[i]}
	}
	data = data[1:]
	for len(data) >= 2 {
		m, op := maps[int(data[0])%n], int(data[1])
		data = data[2:]
		switch op % 3 {
		case 0:
			w.addSlot(m, Slot{Name: string(rune('a' + op/3%4)), Kind: ConstSlot, Value: Int(int64(op))})
		case 1:
			w.addSlot(m, Slot{Name: fmt.Sprintf("p%d*", len(m.Slots)), Kind: ParentSlot, Value: Obj(objs[op/3%n])})
		case 2:
			w.addSlot(m, Slot{Name: fmt.Sprintf("p%d*", len(m.Slots)), Kind: ParentSlot, Value: Nil()})
		}
	}
	return maps
}

// FuzzLookup: on random parent graphs Lookup finds the slot, map and
// holder the map-based oracle finds, and misses where it misses.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 4, 2, 0})                     // chain to a const
	f.Add([]byte{2, 0, 1, 1, 1, 1, 0})                     // two-map cycle
	f.Add([]byte{4, 0, 4, 0, 7, 1, 10, 2, 10, 3, 0, 2, 3}) // diamond
	f.Add([]byte{23, 0, 4, 1, 7, 2, 10, 3, 13, 4, 16, 5, 19, 6, 22, 7, 25, 8, 28, 9, 31, 10, 34,
		11, 37, 12, 40, 13, 43, 14, 46, 15, 49, 16, 52, 17, 55, 18, 58, 19, 61, 20, 64, 21, 67, 22, 70, 23, 61, 23, 9}) // a cycle entered past the on-stack set
	f.Fuzz(func(t *testing.T, data []byte) {
		maps := buildLookupGraph(data)
		for _, m := range maps {
			for _, sel := range []string{"a", "b", "c", "d", "zz"} {
				got, ok := Lookup(m, sel)
				want, wantOK := lookupOracle(m, sel, map[*Map]bool{})
				if ok != wantOK || got != want {
					t.Fatalf("%s %q: got (%+v, %v), oracle (%+v, %v)", m.Name, sel, got, ok, want, wantOK)
				}
			}
		}
	})
}
