// Package ir defines the control flow graph the compiler constructs
// while it performs type analysis, inlining and splitting (the "new
// intermediate phase" of Chambers & Ungar §1). Nodes are low-level
// enough to double as the units the code generator turns into VM
// instructions: by the time the graph reaches the back end, every
// eliminated type test, overflow check and message send is simply
// absent from it.
package ir

import (
	"fmt"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
)

// Reg is a virtual register index within one compiled method.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op enumerates node kinds.
type Op uint8

// Node kinds. Branching kinds have two successors (true/left first,
// matching the paper's figures); Return has none; all others have one.
const (
	Start    Op = iota
	Const       // Dst <- Val
	Move        // Dst <- A
	LoadF       // Dst <- A.fields[Index]
	StoreF      // A.fields[Index] <- B
	LoadE       // Dst <- A.elems[B]   (bounds already guaranteed)
	StoreE      // A.elems[B] <- C
	VecLen      // Dst <- len(A.elems)
	NewVec      // Dst <- new vector, size A, fill B
	CloneOp     // Dst <- shallow copy of A
	Arith       // Dst <- A <ArithOp> B; if Checked, overflow exits to Succ[1]
	CmpBr       // branch on A <CmpOp> B
	TypeTest    // branch on "A has map TestMap" (TestMap==intMap tests int)
	Send        // Dst <- dynamic send Sel to Args[0] with Args[1:]
	Call        // Dst <- direct call of Callee with Args (receiver known)
	PrimOp      // Dst <- uninlined primitive Sel; FailBlk invoked on failure
	MkBlk       // Dst <- closure over Blk capturing Captures
	Fail        // unrecoverable primitive failure (error routine)
	Return      // return A
	NLReturn    // non-local return of A from the closure's home method
	LoadUp      // Dst <- up-level variable Sel of the enclosing activation
	StoreUp     // up-level variable Sel <- A
	LoopHead    // marker: head of loop version Version
	Merge       // explicit merge point marker (for dumps; no code)
)

var opNames = [...]string{
	Start: "start", Const: "const", Move: "move", LoadF: "loadF",
	StoreF: "storeF", LoadE: "loadE", StoreE: "storeE", VecLen: "vecLen",
	NewVec: "newVec", CloneOp: "clone", Arith: "arith", CmpBr: "cmpBr",
	TypeTest: "typeTest", Send: "send", Call: "call", PrimOp: "primOp",
	MkBlk: "mkBlk", Fail: "fail", Return: "return", NLReturn: "nlReturn",
	LoadUp: "loadUp", StoreUp: "storeUp", LoopHead: "loopHead",
	Merge: "merge",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ArithKind is the operation of an Arith node.
type ArithKind uint8

// Arithmetic operations.
const (
	Add ArithKind = iota
	Sub
	Mul
	Div
	Mod
	BAnd
	BOr
	BXor
)

func (a ArithKind) String() string {
	return [...]string{"+", "-", "*", "/", "%", "&", "|", "^"}[a]
}

// CmpKind is the comparison of a CmpBr node.
type CmpKind uint8

// Comparison operations.
const (
	LT CmpKind = iota
	LE
	GT
	GE
	EQ
	NE
)

func (c CmpKind) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "!="}[c]
}

// ArithPrims and CmpPrims name the integer primitives by the operation
// they perform.
var (
	ArithPrims = [...]string{Add: "_IntAdd:", Sub: "_IntSub:", Mul: "_IntMul:", Div: "_IntDiv:",
		Mod: "_IntMod:", BAnd: "_IntAnd:", BOr: "_IntOr:", BXor: "_IntXor:"}
	CmpPrims = [...]string{LT: "_IntLT:", LE: "_IntLE:", GT: "_IntGT:", GE: "_IntGE:", EQ: "_IntEQ:", NE: "_IntNE:"}
)

// Eval is x <a> y on integers; ok is false for a division or modulo by
// zero.
func (a ArithKind) Eval(x, y int64) (v int64, ok bool) {
	switch a {
	case Add:
		v = x + y
	case Sub:
		v = x - y
	case Mul:
		v = x * y
	case Div:
		if y == 0 {
			return 0, false
		}
		v = x / y
	case Mod:
		if y == 0 {
			return 0, false
		}
		v = x % y
	case BAnd:
		v = x & y
	case BOr:
		v = x | y
	case BXor:
		v = x ^ y
	}
	return v, true
}

// Eval reports whether x <c> y holds on integers.
func (c CmpKind) Eval(x, y int64) bool {
	return [...]bool{LT: x < y, LE: x <= y, GT: x > y, GE: x >= y, EQ: x == y, NE: x != y}[c]
}

// Capture names one variable captured by a closure, and where its cell
// comes from: the enclosing activation's register Src, or — FromUp,
// when the enclosing activation is itself a block — that closure's
// cell number Src.
type Capture struct {
	Name   string
	Src    Reg
	FromUp bool

	// ByValue snapshots the current value instead of referencing the
	// frame slot. Used for parameters: they are immutable, and each
	// (possibly inlined, per-iteration) activation is a fresh binding,
	// so closures must not share the register across iterations.
	ByValue bool
}

// CaptureNames lists the captures' names: a closure's cell layout.
func CaptureNames(caps []Capture) []string {
	names := make([]string, len(caps))
	for i, c := range caps {
		names[i] = c.Name
	}
	return names
}

// Node is one node of the control flow graph.
type Node struct {
	ID   int
	Op   Op
	Dst  Reg
	A, B Reg
	C    Reg
	Args []Reg

	Val     obj.Value // Const
	Index   int       // LoadF/StoreF field index; LoadUp/StoreUp closure cell
	Sel     string    // Send/PrimOp selector
	AOp     ArithKind
	COp     CmpKind
	Checked bool     // Arith: overflow check present
	Bounds  bool     // CmpBr: an array bounds check (the run-time statistics count them)
	TestMap *obj.Map // TypeTest target map
	Callee  *Callee  // Call target
	Blk     *ast.Block
	Caps    []Capture
	FailBlk Reg // PrimOp: register holding the failure closure (or NoReg)
	Version int // LoopHead version number

	// Landing, for MkBlk nodes whose block performs a non-local return
	// and whose home method was inlined: the node at which execution
	// resumes (the inlined method's epilogue) when the block's ^ fires
	// at run time. A (= HomeReg) receives the returned value.
	Landing *Node

	// Direct marks a Send that the static-ideal ("optimized C")
	// configuration compiles: dispatched like a direct procedure call
	// in the cost model, since a static compiler would have resolved
	// it at link time.
	Direct bool

	// Uncommon marks nodes on uncommon paths (downstream of primitive
	// failures or failed type tests); splitting never copies past them
	// and the code generator moves them out of line.
	Uncommon bool

	// Note is a free-form annotation shown in CFG dumps (e.g. the type
	// bindings that justified eliminating a check).
	Note string

	Succ []*Node
}

// Callee identifies a customized compiled method: a selector compiled
// for a specific receiver map (customization, §2).
type Callee struct {
	Sel  string
	RMap *obj.Map
	Meth *obj.Method
}

func (c *Callee) String() string {
	return fmt.Sprintf("%s>>%s", c.RMap.Name, c.Sel)
}

// Graph is a compiled method's control flow graph.
type Graph struct {
	Name    string
	Entry   *Node
	NumRegs int
	// NumParams is how many arguments the method or block takes: the
	// back end passes them in registers 2 onwards (0 is self).
	NumParams int
	nodes     []*Node
	nextID    int
}

// NewGraph returns an empty graph with a Start entry node.
func NewGraph(name string) *Graph {
	g := &Graph{Name: name}
	g.Entry = g.NewNode(Start)
	return g
}

// NewNode allocates a node in the graph.
func (g *Graph) NewNode(op Op) *Node {
	g.nextID++
	n := &Node{ID: g.nextID, Op: op, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, FailBlk: NoReg}
	g.nodes = append(g.nodes, n)
	return n
}

// NewReg allocates a fresh virtual register.
func (g *Graph) NewReg() Reg {
	r := Reg(g.NumRegs)
	g.NumRegs++
	return r
}

// Nodes returns every allocated node (including ones made unreachable
// by loop re-compilation; use Reachable for live nodes).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Reachable returns the nodes reachable from the entry, in a stable
// depth-first order (true branches first).
func (g *Graph) Reachable() []*Node {
	var out []*Node
	seen := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, s := range n.Succ {
			walk(s)
		}
	}
	walk(g.Entry)
	return out
}

// Stats summarizes graph content for the experiment tables.
type Stats struct {
	Nodes          int
	Sends          int // remaining dynamic sends
	Calls          int // remaining direct calls
	TypeTests      int // remaining run-time type tests
	OverflowChecks int // remaining checked arithmetic ops
	BoundsChecks   int // remaining compare-branches marked as bounds checks
	LoopVersions   int // LoopHead markers
}

// ComputeStats tallies the reachable graph.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	for _, n := range g.Reachable() {
		s.Nodes++
		switch n.Op {
		case Send:
			s.Sends++
		case Call:
			s.Calls++
		case TypeTest:
			s.TypeTests++
		case Arith:
			if n.Checked {
				s.OverflowChecks++
			}
		case CmpBr:
			if n.Bounds {
				s.BoundsChecks++
			}
		case LoopHead:
			s.LoopVersions++
		}
	}
	return s
}

// String renders one node (without successors).
func (n *Node) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d: ", n.ID)
	switch n.Op {
	case Start:
		b.WriteString("start")
	case Const:
		fmt.Fprintf(&b, "r%d <- const %s", n.Dst, n.Val)
	case Move:
		fmt.Fprintf(&b, "r%d <- r%d", n.Dst, n.A)
	case LoadF:
		fmt.Fprintf(&b, "r%d <- r%d.f[%d]", n.Dst, n.A, n.Index)
	case StoreF:
		fmt.Fprintf(&b, "r%d.f[%d] <- r%d", n.A, n.Index, n.B)
	case LoadE:
		fmt.Fprintf(&b, "r%d <- r%d[r%d]", n.Dst, n.A, n.B)
	case StoreE:
		fmt.Fprintf(&b, "r%d[r%d] <- r%d", n.A, n.B, n.C)
	case VecLen:
		fmt.Fprintf(&b, "r%d <- len r%d", n.Dst, n.A)
	case NewVec:
		fmt.Fprintf(&b, "r%d <- newVec size r%d fill r%d", n.Dst, n.A, n.B)
	case CloneOp:
		fmt.Fprintf(&b, "r%d <- clone r%d", n.Dst, n.A)
	case Arith:
		chk := ""
		if n.Checked {
			chk = " [ovfl-check]"
		}
		fmt.Fprintf(&b, "r%d <- r%d %s r%d%s", n.Dst, n.A, n.AOp, n.B, chk)
	case CmpBr:
		fmt.Fprintf(&b, "branch r%d %s r%d", n.A, n.COp, n.B)
	case TypeTest:
		fmt.Fprintf(&b, "typeTest r%d is %s", n.A, n.TestMap.Name)
	case Send:
		fmt.Fprintf(&b, "r%d <- send %q to r%d args %v", n.Dst, n.Sel, n.Args[0], n.Args[1:])
	case Call:
		fmt.Fprintf(&b, "r%d <- call %s args %v", n.Dst, n.Callee, n.Args)
	case PrimOp:
		fmt.Fprintf(&b, "r%d <- prim %q args %v", n.Dst, n.Sel, n.Args)
	case MkBlk:
		fmt.Fprintf(&b, "r%d <- block (%d captures)", n.Dst, len(n.Caps))
	case Fail:
		fmt.Fprintf(&b, "fail %q", n.Sel)
	case Return:
		fmt.Fprintf(&b, "return r%d", n.A)
	case NLReturn:
		fmt.Fprintf(&b, "nlReturn r%d", n.A)
	case LoadUp:
		fmt.Fprintf(&b, "r%d <- up %q", n.Dst, n.Sel)
	case StoreUp:
		fmt.Fprintf(&b, "up %q <- r%d", n.Sel, n.A)
	case LoopHead:
		fmt.Fprintf(&b, "loopHead v%d", n.Version)
	case Merge:
		b.WriteString("merge")
	}
	if n.Uncommon {
		b.WriteString(" (uncommon)")
	}
	if n.Note != "" {
		fmt.Fprintf(&b, "  ; %s", n.Note)
	}
	return b.String()
}

// DOT renders the reachable graph in Graphviz dot syntax, the closest
// thing to the paper's control-flow-graph figures: uncommon (failure)
// paths are grey, loop heads are doubled, branch edges are labelled.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=10];\n")
	for _, n := range g.Reachable() {
		label := strings.ReplaceAll(n.String(), "\"", "'")
		attrs := fmt.Sprintf("label=%q", label)
		if n.Uncommon {
			attrs += ", style=filled, fillcolor=gray85"
		}
		if n.Op == LoopHead {
			attrs += ", peripheries=2"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", n.ID, attrs)
		for i, s := range n.Succ {
			if s == nil {
				continue
			}
			edge := ""
			if len(n.Succ) > 1 {
				if i == 0 {
					edge = " [label=t]"
				} else {
					edge = " [label=f]"
				}
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", n.ID, s.ID, edge)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Dump renders the reachable graph as indented text, one node per line
// with successor references — the moral equivalent of the paper's CFG
// figures.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s (%d regs)\n", g.Name, g.NumRegs)
	for _, n := range g.Reachable() {
		b.WriteString("  ")
		b.WriteString(n.String())
		if len(n.Succ) > 0 {
			b.WriteString("  ->")
			for _, s := range n.Succ {
				fmt.Fprintf(&b, " n%d", s.ID)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
