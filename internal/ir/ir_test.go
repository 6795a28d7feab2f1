package ir

import (
	"strings"
	"testing"

	"selfgo/internal/obj"
)

func TestGraphConstruction(t *testing.T) {
	g := NewGraph("t")
	if g.Entry == nil || g.Entry.Op != Start {
		t.Fatal("no start node")
	}
	n1 := g.NewNode(Const)
	n1.Dst = g.NewReg()
	n1.Val = obj.Int(3)
	g.Entry.Succ = []*Node{n1}
	ret := g.NewNode(Return)
	ret.A = n1.Dst
	n1.Succ = []*Node{ret}

	if got := len(g.Reachable()); got != 3 {
		t.Errorf("reachable = %d, want 3", got)
	}
	if g.NumRegs != 1 {
		t.Errorf("regs = %d", g.NumRegs)
	}
}

func TestReachableExcludesDetached(t *testing.T) {
	g := NewGraph("t")
	live := g.NewNode(Return)
	g.Entry.Succ = []*Node{live}
	// Detached nodes (discarded loop simulations) are allocated but
	// unreachable.
	for i := 0; i < 5; i++ {
		g.NewNode(Const)
	}
	if got := len(g.Reachable()); got != 2 {
		t.Errorf("reachable = %d, want 2", got)
	}
	if got := len(g.Nodes()); got != 7 {
		t.Errorf("allocated = %d, want 7", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := NewGraph("t")
	send := g.NewNode(Send)
	send.Sel = "foo"
	send.Args = []Reg{0}
	tt := g.NewNode(TypeTest)
	tt.TestMap = &obj.Map{Name: "smallInt"}
	ar := g.NewNode(Arith)
	ar.Checked = true
	bc := g.NewNode(CmpBr)
	bc.Bounds, bc.Note = true, "bounds(upper)"
	lh := g.NewNode(LoopHead)
	ret := g.NewNode(Return)

	g.Entry.Succ = []*Node{send}
	send.Succ = []*Node{tt}
	tt.Succ = []*Node{ar, ret}
	ar.Succ = []*Node{bc, ret}
	bc.Succ = []*Node{lh, ret}
	lh.Succ = []*Node{ret}

	s := g.ComputeStats()
	if s.Sends != 1 || s.TypeTests != 1 || s.OverflowChecks != 1 || s.BoundsChecks != 1 || s.LoopVersions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNodeStrings(t *testing.T) {
	g := NewGraph("t")
	cases := []func() *Node{
		func() *Node { n := g.NewNode(Const); n.Dst = 1; n.Val = obj.Int(7); return n },
		func() *Node { n := g.NewNode(Move); n.Dst = 1; n.A = 2; return n },
		func() *Node {
			n := g.NewNode(Arith)
			n.Dst = 1
			n.A = 2
			n.B = 3
			n.Checked = true
			return n
		},
		func() *Node { n := g.NewNode(CmpBr); n.A = 1; n.B = 2; n.COp = LT; return n },
		func() *Node {
			n := g.NewNode(TypeTest)
			n.A = 1
			n.TestMap = &obj.Map{Name: "smallInt"}
			return n
		},
		func() *Node { n := g.NewNode(Send); n.Dst = 1; n.Sel = "at:"; n.Args = []Reg{0, 2}; return n },
		func() *Node { n := g.NewNode(Return); n.A = 1; return n },
		func() *Node { n := g.NewNode(LoopHead); n.Version = 2; return n },
		func() *Node { n := g.NewNode(LoadUp); n.Dst = 1; n.Sel = "x"; return n },
	}
	for _, mk := range cases {
		n := mk()
		if s := n.String(); s == "" || strings.Contains(s, "Op(") {
			t.Errorf("bad String for %v: %q", n.Op, s)
		}
	}
	if !strings.Contains(g.Dump(), "graph t") {
		t.Error("dump missing header")
	}
}

func TestOpAndKindStrings(t *testing.T) {
	for op := Start; op <= Merge; op++ {
		if s := op.String(); strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no name", int(op))
		}
	}
	wantA := []string{"+", "-", "*", "/", "%", "&", "|", "^"}
	for i, w := range wantA {
		if got := ArithKind(i).String(); got != w {
			t.Errorf("ArithKind(%d) = %q, want %q", i, got, w)
		}
	}
	wantC := []string{"<", "<=", ">", ">=", "=", "!="}
	for i, w := range wantC {
		if got := CmpKind(i).String(); got != w {
			t.Errorf("CmpKind(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestCalleeString(t *testing.T) {
	c := &Callee{Sel: "at:", RMap: &obj.Map{Name: "vector"}}
	if c.String() != "vector>>at:" {
		t.Errorf("got %q", c.String())
	}
}

func TestDOT(t *testing.T) {
	g := NewGraph("d")
	tt := g.NewNode(TypeTest)
	tt.TestMap = &obj.Map{Name: "smallInt"}
	r1 := g.NewNode(Return)
	r2 := g.NewNode(Return)
	r2.Uncommon = true
	lh := g.NewNode(LoopHead)
	g.Entry.Succ = []*Node{tt}
	tt.Succ = []*Node{lh, r2}
	lh.Succ = []*Node{r1}
	dot := g.DOT()
	for _, want := range []string{"digraph", "label=t", "label=f", "gray85", "peripheries=2", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
