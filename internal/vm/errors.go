package vm

import (
	"fmt"
	"strings"
)

// ErrKind classifies a RuntimeError so hosts can route faults without
// parsing messages: a server front end maps DoesNotUnderstand to a
// client error, OutOfFuel/Cancelled to a request-level abort, and
// Internal to a bug report — never to a process crash.
type ErrKind uint8

// RuntimeError kinds.
const (
	// KindError is a plain guest-level runtime error (unchecked-path
	// violations, user-raised errors, dead-home non-local returns).
	KindError ErrKind = iota
	// KindDoesNotUnderstand: a message lookup found no matching slot.
	KindDoesNotUnderstand
	// KindStackOverflow: activation depth exceeded the VM limit or the
	// budget's MaxDepth.
	KindStackOverflow
	// KindOutOfFuel: the budget's MaxInstrs, MaxAllocs or MaxBytes was
	// exhausted.
	KindOutOfFuel
	// KindCancelled: the context passed to RunMethodCtx was cancelled
	// or its deadline expired.
	KindCancelled
	// KindPrimitiveFailed: a robust primitive failed with no IfFail:
	// handler.
	KindPrimitiveFailed
	// KindInternal: a Go panic inside the VM or compiler, contained at
	// the RunMethod/compile-flight boundary. GoStack holds the Go-level
	// stack trace.
	KindInternal
)

func (k ErrKind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDoesNotUnderstand:
		return "doesNotUnderstand"
	case KindStackOverflow:
		return "stackOverflow"
	case KindOutOfFuel:
		return "outOfFuel"
	case KindCancelled:
		return "cancelled"
	case KindPrimitiveFailed:
		return "primitiveFailed"
	case KindInternal:
		return "internal"
	}
	return fmt.Sprintf("ErrKind(%d)", uint8(k))
}

// TraceFrame is one activation of the Self-level backtrace attached to
// a RuntimeError: the compiled code's name (receiver-map>>selector, or
// block@position) and the pc of the faulting or calling instruction in
// the code as assembled — superinstruction fusion does not renumber it.
type TraceFrame struct {
	Name string
	PC   int
}

func (f TraceFrame) String() string { return fmt.Sprintf("%s @%d", f.Name, f.PC) }

// maxTraceFrames bounds the captured backtrace so a fault at the bottom
// of a deep recursion does not materialize 100k frames.
const maxTraceFrames = 32

// RuntimeError is a SELF-level error (primitive failure with no
// handler, message not understood, exhausted budget, contained panic,
// etc.). Kind classifies it; Trace is the Self-level backtrace,
// innermost frame first, captured as the error unwinds; GoStack holds
// the Go stack for KindInternal faults.
type RuntimeError struct {
	Kind    ErrKind
	Msg     string
	Trace   []TraceFrame
	GoStack []byte
}

func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

// Backtrace renders the Self-level trace, one frame per line, innermost
// first. Empty when no frames were captured.
func (e *RuntimeError) Backtrace() string {
	if len(e.Trace) == 0 {
		return ""
	}
	var b strings.Builder
	for _, f := range e.Trace {
		fmt.Fprintf(&b, "  at %s\n", f)
	}
	return b.String()
}

// pushFrame appends one Self-level frame to err's backtrace, if err is
// a RuntimeError with room left: the instruction `within` places past
// the head of code's entry at pc (see Code.sourcePC). Called as each
// activation unwinds, so the trace reads innermost-first.
func pushFrame(err error, code *Code, pc, within int) {
	re, ok := err.(*RuntimeError)
	if !ok || len(re.Trace) >= maxTraceFrames {
		return
	}
	re.Trace = append(re.Trace, TraceFrame{Name: code.Name, PC: code.sourcePC(pc, within)})
}
