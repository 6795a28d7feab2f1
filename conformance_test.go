package selfgo

// Conformance programs: realistic object-oriented code exercising
// prototypes, polymorphism, closures and collections together. Every
// compiler configuration must agree on every program (the oracle
// matrix's TestConformanceAcrossConfigs).

var conformancePrograms = []struct {
	name string
	src  string
	sel  string
	args []Value
	want int64
}{
	{
		name: "linked-list",
		src: `
		node = (| parent* = lobby. val <- 0. next.
		    setVal: v = ( val: v. self ) |).
		listSum: n = ( | head. cur. sum <- 0 |
		    n downTo: 1 Do: [ :i |
		        | fresh |
		        fresh: (node _Clone setVal: i).
		        fresh next: head.
		        head: fresh ].
		    cur: head.
		    [ cur notNil ] whileTrue: [
		        sum: sum + cur val.
		        cur: cur next ].
		    sum ).`,
		sel: "listSum:", args: []Value{IntValue(100)}, want: 5050,
	},
	{
		name: "stack-machine",
		src: `
		stack = (| parent* = lobby. cells. top <- 0.
		    init = ( cells: vector copySize: 64. top: 0. self ).
		    push: v = ( cells at: top Put: v. top: top + 1. self ).
		    pop = ( top: top - 1. cells at: top ).
		    isEmpty = ( top = 0 ) |).
		rpn = ( | s |
		    "Evaluate (3 4 +) (2 *) (10 -) = 4 with a stack machine."
		    s: stack _Clone init.
		    s push: 3. s push: 4.
		    s push: (s pop + s pop).
		    s push: 2.
		    s push: (s pop * s pop).
		    s push: 10.
		    ^ 0 - (s pop - s pop) ).`,
		sel: "rpn", want: 4,
	},
	{
		name: "polymorphic-shapes",
		src: `
		square = (| parent* = lobby. side <- 0.
		    setSide: s = ( side: s. self ).
		    area = ( side * side ) |).
		rect = (| parent* = lobby. w <- 0. h <- 0.
		    setW: a H: b = ( w: a. h: b. self ).
		    area = ( w * h ) |).
		tri = (| parent* = lobby. b <- 0. ht <- 0.
		    setB: a H: c = ( b: a. ht: c. self ).
		    area = ( (b * ht) / 2 ) |).
		totalArea = ( | shapes. sum <- 0 |
		    shapes: vector copySize: 6.
		    shapes at: 0 Put: (square _Clone setSide: 3).
		    shapes at: 1 Put: (rect _Clone setW: 4 H: 5).
		    shapes at: 2 Put: (tri _Clone setB: 6 H: 7).
		    shapes at: 3 Put: (square _Clone setSide: 2).
		    shapes at: 4 Put: (rect _Clone setW: 1 H: 9).
		    shapes at: 5 Put: (tri _Clone setB: 10 H: 3).
		    shapes do: [ :s | sum: sum + s area ].
		    sum ).`,
		sel: "totalArea", want: 9 + 20 + 21 + 4 + 9 + 15,
	},
	{
		name: "sort-with-comparator",
		src: `
		sortVec: v By: cmp = ( | n |
		    n: v size.
		    0 upTo: n Do: [ :i |
		        0 upTo: n - 1 - i Do: [ :j |
		            ((cmp value: (v at: j) Value: (v at: j + 1)) not) ifTrue: [
		                | t |
		                t: v at: j.
		                v at: j Put: (v at: j + 1).
		                v at: j + 1 Put: t ] ] ].
		    v ).
		go = ( | v. chk <- 0 |
		    v: vector copySize: 8.
		    v fillFrom: [ :i | (i * 37) % 11 ].
		    sortVec: v By: [ :a :b | a <= b ].
		    v withIndexDo: [ :e :i | chk: (chk + (e * (i + 1))) % 999983 ].
		    "descending this time"
		    sortVec: v By: [ :a :b | a >= b ].
		    v withIndexDo: [ :e :i | chk: ((chk * 10) + e) % 999983 ].
		    chk ).`,
		sel: "go", want: 0, // cross-config consistency only; computed below
	},
	{
		name: "state-machine",
		src: `
		"A traffic-light cycle driven by message dispatch."
		red = (| parent* = lobby. tag = ( 0 ) |).
		green = (| parent* = lobby. tag = ( 1 ) |).
		yellow = (| parent* = lobby. tag = ( 2 ) |).
		nextOf: s = (
		    ((s tag) = 0) ifTrue: [ ^ green ].
		    ((s tag) = 1) ifTrue: [ ^ yellow ].
		    red ).
		cycle: n = ( | s. trace <- 0 |
		    s: red.
		    n timesRepeat: [
		        trace: (trace * 3 + s tag) % 999983.
		        s: (nextOf: s) ].
		    trace ).`,
		sel: "cycle:", args: []Value{IntValue(30)}, want: 0, // consistency only
	},
	{
		name: "memoized-fib",
		src: `
		memo <- nil.
		mfib: n = (
		    (n < 2) ifTrue: [ ^ n ].
		    ((memo at: n) >= 0) ifTrue: [ ^ memo at: n ].
		    memo at: n Put: (mfib: n - 1) + (mfib: n - 2).
		    memo at: n ).
		go: n = (
		    memo: vector copySize: n + 1 FillWith: -1.
		    mfib: n ).`,
		sel: "go:", args: []Value{IntValue(25)}, want: 75025,
	},
	{
		name: "matrix-transpose-trace",
		src: `
		go: n = ( | m. tr <- 0 |
		    m: vector copySize: n.
		    0 upTo: n Do: [ :i |
		        | row |
		        row: vector copySize: n.
		        0 upTo: n Do: [ :j | row at: j Put: (i * n) + j ].
		        m at: i Put: row ].
		    "trace of the transpose equals trace of the original"
		    0 upTo: n Do: [ :i | tr: tr + ((m at: i) at: i) ].
		    tr ).`,
		sel: "go:", args: []Value{IntValue(10)}, want: 0 + 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88 + 99,
	},
	{
		name: "accumulator-generator",
		src: `
		mkAcc = ( | total <- 0 | [ :x | total: total + x. total ] ).
		go = ( | acc1. acc2 |
		    acc1: mkAcc.
		    acc2: mkAcc.
		    acc1 value: 10.
		    acc1 value: 20.
		    acc2 value: 5.
		    ((acc1 value: 0) * 100) + (acc2 value: 0) ).`,
		sel: "go", want: 3005,
	},

	// The remaining programs stress the activation machinery: non-local
	// return unwinding through several frames, escaped closures
	// outliving their frames, deep recursion across the frame pool, and
	// polymorphic sends interleaved with block invocation.
	{
		// ^ inside the withIndexDo: block non-locally returns out of
		// findIn:, unwinding through the prelude's loop activations.
		name: "nlr-through-send-chain",
		src: `
		find: n In: v = (
		    v withIndexDo: [ :e :i | (e = n) ifTrue: [ ^ i ] ].
		    0 - 1 ).
		go = ( | v. s <- 0 |
		    v: vector copySize: 20.
		    v fillFrom: [ :i | (i * 7) % 20 ].
		    0 upTo: 20 Do: [ :k | s: s + (find: k In: v) ].
		    s ).`,
		sel: "go", want: 190,
	},
	{
		// Each stored closure captures a distinct iteration's frame;
		// invoking them later forces the escaped-frame pool exemption.
		name: "escaping-closure-vector",
		src: `
		mkAdders: n = ( | v |
		    v: vector copySize: n.
		    0 upTo: n Do: [ :i | v at: i Put: [ :x | x + i ] ].
		    v ).
		go = ( | v. s <- 0 |
		    v: (mkAdders: 10).
		    0 upTo: 10 Do: [ :i | s: s + ((v at: i) value: i * i) ].
		    s ).`,
		sel: "go", want: 330,
	},
	{
		// Deep recursion churns pushed activations right at the
		// tier-promotion boundary when run adaptively.
		name: "deep-recursion",
		src: `
		deepSum: n = ( (n = 0) ifTrue: [ 0 ] False: [ n + (deepSum: n - 1) ] ).
		go = ( deepSum: 2000 ).`,
		sel: "go", want: 2001000,
	},
	{
		// Polymorphic twice: send alternates receivers every iteration
		// while handing each a fresh block — PIC feedback interleaved
		// with the block value protocol.
		name: "interleaved-dispatch-blocks",
		src: `
		doubler = (| parent* = lobby. twice: blk = ( (blk value) + (blk value) ) |).
		tripler = (| parent* = lobby. twice: blk = ( 3 * (blk value) ) |).
		go = ( | s <- 0. o |
		    1 upTo: 21 Do: [ :i |
		        o: (((i % 2) = 0) ifTrue: [ doubler ] False: [ tripler ]).
		        s: s + (o twice: [ i ]) ].
		    s ).`,
		sel: "go", want: 520,
	},
	{
		// A stored block whose conditional ^ returns from the enclosing
		// method only on some invocations: the NLR path and the normal
		// fall-through path must agree across configurations.
		name: "conditional-nlr",
		src: `
		clamp: n = ( | blk |
		    blk: [ :x | (x > 100) ifTrue: [ ^ 100 ]. x * 2 ].
		    1 + (blk value: n) ).
		go = ( | s <- 0 |
		    0 upTo: 9 Do: [ :i | s: s + (clamp: i * 30) ].
		    s ).`,
		sel: "go", want: 864,
	},
}
