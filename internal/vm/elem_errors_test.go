package vm

import (
	"strings"
	"testing"

	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// The unchecked element-access path must distinguish its two failure
// modes in the error it reports: a non-object receiver (nothing to
// index) versus an index outside the vector's bounds.

func elemGraph(op ir.Op, recvVal obj.Value, index int64) *ir.Graph {
	g := ir.NewGraph("t")
	rv, ri, rd := g.NewReg(), g.NewReg(), g.NewReg()
	cv := g.NewNode(ir.Const)
	cv.Dst = rv
	cv.Val = recvVal
	ci := g.NewNode(ir.Const)
	ci.Dst = ri
	ci.Val = obj.Int(index)
	acc := g.NewNode(op)
	if op == ir.LoadE {
		acc.Dst = rd
		acc.A, acc.B = rv, ri
	} else {
		acc.A, acc.B, acc.C = rv, ri, ri
	}
	ret := g.NewNode(ir.Return)
	ret.A = rd
	chain(g, cv, ci, acc, ret)
	return g
}

func TestElemErrorsSplitNilVsOOB(t *testing.T) {
	w := obj.NewWorld()
	vec := obj.Obj(w.NewVector(3, obj.Nil()))
	cases := []struct {
		name string
		op   ir.Op
		recv obj.Value
		idx  int64
		want []string
	}{
		{"load non-object", ir.LoadE, obj.Nil(), 0,
			[]string{"element load", "non-object receiver"}},
		{"load out of bounds", ir.LoadE, vec, 99,
			[]string{"element load", "index 99 out of bounds (length 3)"}},
		{"load immediate receiver", ir.LoadE, obj.Int(7), 0,
			[]string{"element load", "non-object receiver"}},
		{"store non-object", ir.StoreE, obj.Nil(), 0,
			[]string{"element store", "non-object receiver"}},
		{"store out of bounds", ir.StoreE, vec, -1,
			[]string{"element store", "index -1 out of bounds (length 3)"}},
	}
	for _, c := range cases {
		machine := &VM{World: w}
		code := Assemble(elemGraph(c.op, c.recv, c.idx))
		_, err := machine.invokeCode(code, obj.Nil(), nil)
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		for _, frag := range c.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, frag)
			}
		}
		// The two failure modes must not share one message.
		if strings.Contains(err.Error(), "non-object") && strings.Contains(err.Error(), "out of bounds") {
			t.Errorf("%s: error %q conflates both failure modes", c.name, err)
		}
	}
}
