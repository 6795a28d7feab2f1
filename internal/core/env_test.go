package core

import (
	"math/rand"
	"testing"

	"selfgo/internal/ast"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/types"
)

// envModelRegs spans several chunks, the last one partly.
const envModelRegs = 4*chunkRegs + 7

// envModel drives an env pool and a pool of plain maps — the
// representation env replaced — through the same operations, decoded
// from prog, and compares every binding of every env after each one.
// Envs stay in the pool after they are forked, restricted or merged, so
// a write through any of them that reached a sibling shows up.
type envModel struct {
	t      testing.TB
	cp     *compilation
	envs   []*env
	models []map[ir.Reg]types.Type
	prog   []byte
	types  []types.Type
}

func newEnvModel(t testing.TB, prog []byte) *envModel {
	w := obj.NewWorld()
	cp := newCompilation(New(w, NewSELF))
	cp.g = ir.NewGraph("model")
	cp.g.NumRegs = envModelRegs
	b1, b2 := &ast.Block{}, &ast.Block{}
	return &envModel{
		t: t, cp: cp, prog: prog,
		envs:   []*env{&env{}},
		models: []map[ir.Reg]types.Type{{}},
		types: []types.Type{
			types.Unknown{},
			types.Range{Lo: 0, Hi: 0},
			types.Range{Lo: 1, Hi: 5},
			types.FullRange(),
			types.NewClass(w.StrMap, w.IntMap),
			types.Blk{B: b1, M: w.BlockMap},
			types.Blk{B: b2, M: w.BlockMap},
		},
	}
}

func (m *envModel) next() int {
	if len(m.prog) == 0 {
		return 0
	}
	b := m.prog[0]
	m.prog = m.prog[1:]
	return int(b)
}

func (m *envModel) pick() int { return m.next() % len(m.envs) }

func (m *envModel) reg() ir.Reg { return ir.Reg(m.next() % envModelRegs) }

func modelGet(model map[ir.Reg]types.Type, r ir.Reg) types.Type {
	if t, ok := model[r]; ok {
		return t
	}
	return types.Unknown{}
}

func (m *envModel) add(e *env, model map[ir.Reg]types.Type) {
	if len(m.envs) < 24 {
		m.envs = append(m.envs, e)
		m.models = append(m.models, model)
	}
}

func (m *envModel) step() {
	switch op := m.next() % 8; op {
	case 0, 1, 2: // bind
		i, r, t := m.pick(), m.reg(), m.types[m.next()%len(m.types)]
		m.envs[i].set(r, t)
		m.models[i][r] = t
	case 3: // fork
		i := m.pick()
		model := map[ir.Reg]types.Type{}
		for r, t := range m.models[i] {
			model[r] = t
		}
		m.add(m.envs[i].clone(), model)
	case 4: // track or untrack, as inlining does around a scope
		if m.next()%2 == 0 {
			m.cp.track(m.reg())
		} else if n := len(m.cp.tracked); n > 0 {
			m.cp.trackRelease(m.next() % n)
		}
	case 5: // prune to the tracked registers, as a loop simulation's tails are
		i := m.pick()
		model := map[ir.Reg]types.Type{}
		for _, r := range m.cp.tracked {
			model[r] = modelGet(m.models[i], r)
		}
		m.add(m.envs[i].restrict(m.cp.trackedMask), model)
	case 6, 7: // merge two or three envs
		idx := []int{m.pick(), m.pick(), m.pick()}[:2+op%2]
		if idx[0] == idx[1] || (len(idx) == 3 && (idx[2] == idx[0] || idx[2] == idx[1])) {
			return
		}
		res := ir.NoReg
		if m.next()%2 == 0 {
			res = m.reg()
		}
		var flows []*flow
		var models []map[ir.Reg]types.Type
		for _, i := range idx {
			flows = append(flows, &flow{from: m.cp.g.NewNode(ir.Merge), env: m.envs[i]})
			models = append(models, m.models[i])
		}
		merged := m.cp.mergeFlows(flows, res)
		m.add(merged.env, m.mergeModels(models, res))
	}
}

// mergeModels is mergeFlows over maps, as it was written for them: block
// literals the flows disagree on become closures in register order, and
// the result binds the tracked registers, res and the agreed block
// literals — nothing else.
func (m *envModel) mergeModels(models []map[ir.Reg]types.Type, res ir.Reg) map[ir.Reg]types.Type {
	regs := append([]ir.Reg(nil), m.cp.tracked...)
	if res != ir.NoReg {
		regs = append(regs, res)
	}
	for r := ir.Reg(0); r < envModelRegs; r++ {
		isBlk, same := false, true
		for _, model := range models {
			_, b := modelGet(model, r).(types.Blk)
			isBlk = isBlk || b
			same = same && types.Equal(modelGet(model, r), modelGet(models[0], r))
		}
		switch {
		case isBlk && same:
			regs = append(regs, r)
		case isBlk:
			for _, model := range models {
				if _, b := modelGet(model, r).(types.Blk); b {
					model[r] = types.NewClass(m.cp.w.BlockMap, m.cp.intMap())
				}
			}
		}
	}
	out := map[ir.Reg]types.Type{}
	for _, r := range regs {
		t := modelGet(models[0], r)
		for _, model := range models[1:] {
			t = types.MergeOf(t, modelGet(model, r), 0, m.cp.intMap())
		}
		out[r] = t
	}
	return out
}

func (m *envModel) check() {
	for i, e := range m.envs {
		for r := ir.Reg(0); r < envModelRegs; r++ {
			got, want := e.get(r), modelGet(m.models[i], r)
			if got == nil {
				m.t.Fatalf("env %d: r%d reads nil", i, r)
			}
			if !types.Equal(got, want) {
				m.t.Fatalf("env %d: r%d is %s, the map model says %s\n%s", i, r, got, want, e)
			}
			if _, blk := want.(types.Blk); blk != (e.chunk(int(r)/chunkRegs).blk&(1<<(int(r)%chunkRegs)) != 0) {
				m.t.Fatalf("env %d: r%d: block mask disagrees with the binding %s", i, r, want)
			}
		}
		if got := e.get(ir.NoReg); !types.Equal(got, types.Unknown{}) {
			m.t.Fatalf("env %d: NoReg reads %s", i, got)
		}
	}
	for r := ir.Reg(0); r < envModelRegs; r++ {
		tracked := false
		for _, tr := range m.cp.tracked {
			tracked = tracked || tr == r
		}
		if m.cp.trackedMask.has(r) != tracked {
			m.t.Fatalf("tracked mask and list disagree on r%d", r)
		}
	}
}

func runEnvModel(t testing.TB, prog []byte) {
	m := newEnvModel(t, prog)
	for len(m.prog) > 0 {
		m.step()
		m.check()
	}
}

func TestEnvModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 600)
		rng.Read(prog)
		runEnvModel(t, prog)
	}
}

func FuzzEnvModel(f *testing.F) {
	f.Add([]byte{0, 0, 3, 5, 3, 0, 0, 0, 3, 1, 6, 0, 1, 0, 3})
	f.Add([]byte{4, 0, 40, 0, 0, 40, 5, 3, 0, 0, 1, 40, 6, 7, 0, 1, 1, 9, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { runEnvModel(t, prog) })
}

func TestEnvForkIndependence(t *testing.T) {
	a := &env{}
	one, two := types.Range{Lo: 1, Hi: 1}, types.Range{Lo: 2, Hi: 2}
	a.set(3, one)
	b := a.clone()
	if a.chunks[0] != b.chunks[0] {
		t.Fatal("a fork copied a chunk nobody wrote")
	}
	a.set(3, two) // the original writes after the fork …
	b.set(4, two) // … and so does the copy
	if got := b.get(3); !types.Equal(got, one) {
		t.Errorf("the original's write reached the copy: r3 is %s", got)
	}
	if got := a.get(4); !types.Equal(got, types.Unknown{}) {
		t.Errorf("the copy's write reached the original: r4 is %s", got)
	}
	c := a.chunks[0]
	a.set(5, one)
	if a.chunks[0] != c {
		t.Error("a second write to an owned chunk copied it again")
	}
	shared := b.chunks[0]
	b.clone().set(40, types.Unknown{})
	b.set(40, types.Unknown{})
	if b.chunks[0] != shared || len(b.chunks) != 1 {
		t.Error("binding unknown over unknown wrote something")
	}
}

func TestEnvRejectsNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("set(r, nil) did not panic")
		}
	}()
	(&env{}).set(1, nil)
}
