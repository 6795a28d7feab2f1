// Package wire is the JSON vocabulary of the serving layer: request
// decoding with validation and limits for selfserved's endpoints, and
// the result encoding shared by the server's responses and `selfrun
// -json` — one set of types, so the two output paths cannot drift.
package wire

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

// Budget mirrors vm.Budget on the wire. Zero fields are "no limit";
// the server additionally clamps every field to its configured caps.
type Budget struct {
	MaxInstrs int64 `json:"max_instrs,omitempty"`
	MaxAllocs int64 `json:"max_allocs,omitempty"`
	// MaxBytes bounds modelled vector/clone storage bytes; see
	// vm.Budget.MaxBytes.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	MaxDepth int   `json:"max_depth,omitempty"`
	// PollEvery tightens the cooperative budget/cancellation poll
	// stride for this request (see vm.Budget.PollEvery).
	PollEvery int64 `json:"poll_every,omitempty"`
}

// EvalRequest is the body of POST /eval: either an expression sequence
// (expr) or a call to a lobby selector (entry + integer args), with an
// optional program — lobby slot definitions loaded into the shared
// world once per distinct text — and per-request limits.
type EvalRequest struct {
	Program    string  `json:"program,omitempty"`
	Expr       string  `json:"expr,omitempty"`
	Entry      string  `json:"entry,omitempty"`
	Args       []int64 `json:"args,omitempty"`
	Budget     *Budget `json:"budget,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

// RunRequest is the body of POST /run: a named benchmark.
type RunRequest struct {
	Bench      string  `json:"bench"`
	Budget     *Budget `json:"budget,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

// Limits bounds request decoding. Zero fields take the defaults.
type Limits struct {
	MaxBody    int64 // bytes of request body
	MaxProgram int   // bytes of the program field
	MaxExpr    int   // bytes of the expr field
	MaxArgs    int   // entry arguments
}

// Default decoding limits.
const (
	DefaultMaxBody    = 1 << 20 // 1 MiB
	DefaultMaxProgram = 256 << 10
	DefaultMaxExpr    = 64 << 10
	DefaultMaxArgs    = 16
)

func (l Limits) withDefaults() Limits {
	if l.MaxBody <= 0 {
		l.MaxBody = DefaultMaxBody
	}
	if l.MaxProgram <= 0 {
		l.MaxProgram = DefaultMaxProgram
	}
	if l.MaxExpr <= 0 {
		l.MaxExpr = DefaultMaxExpr
	}
	if l.MaxArgs <= 0 {
		l.MaxArgs = DefaultMaxArgs
	}
	return l
}

// RequestError is a rejected request: Status is the HTTP status the
// server should answer with (400 malformed, 413 too large, 422
// semantically invalid).
type RequestError struct {
	Status int
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// DecodeEvalRequest reads, parses and validates an /eval body.
func DecodeEvalRequest(r io.Reader, limits Limits) (*EvalRequest, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	data, err := ReadRequest(r, -1, *buf, limits)
	*buf = data
	if err != nil {
		return nil, err
	}
	req, err := ParseEvalRequest(data, limits)
	if err != nil {
		return nil, err
	}
	return &EvalRequest{Program: string(req.Program), Expr: string(req.Expr), Entry: string(req.Entry),
		Args: req.Args, Budget: req.Budget, DeadlineMS: req.DeadlineMS}, nil
}

// DecodeRunRequest reads, parses and validates a /run body.
func DecodeRunRequest(r io.Reader, limits Limits) (*RunRequest, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	data, err := ReadRequest(r, -1, *buf, limits)
	*buf = data
	if err != nil {
		return nil, err
	}
	req, err := ParseRunRequest(data)
	if err != nil {
		return nil, err
	}
	return &RunRequest{Bench: string(req.Bench), Budget: req.Budget, DeadlineMS: req.DeadlineMS}, nil
}

func (req *EvalBody) validate(limits Limits) error {
	if len(req.Program) > limits.MaxProgram {
		return &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("program exceeds %d bytes", limits.MaxProgram)}
	}
	if len(req.Expr) > limits.MaxExpr {
		return &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("expr exceeds %d bytes", limits.MaxExpr)}
	}
	switch {
	case len(req.Expr) == 0 && len(req.Entry) == 0:
		return badRequest("one of expr or entry is required")
	case len(req.Expr) != 0 && len(req.Entry) != 0:
		return badRequest("expr and entry are mutually exclusive")
	}
	if len(req.Entry) != 0 {
		entry := string(req.Entry)
		if !validSelector(entry) {
			return badRequest("bad entry selector %q", entry)
		}
		if want := ast.NumArgs(entry); want != len(req.Args) {
			return badRequest("entry %q takes %d argument(s), got %d", entry, want, len(req.Args))
		}
	}
	if len(req.Expr) != 0 && len(req.Args) > 0 {
		return badRequest("args require an entry selector")
	}
	if len(req.Args) > limits.MaxArgs {
		return badRequest("too many args (max %d)", limits.MaxArgs)
	}
	if err := validateBudget(req.Budget); err != nil {
		return err
	}
	if req.DeadlineMS < 0 {
		return badRequest("deadline_ms must be >= 0")
	}
	return nil
}

func (req *RunBody) validate() error {
	if len(req.Bench) == 0 {
		return badRequest("bench is required")
	}
	if !validName(string(req.Bench)) {
		return badRequest("bad bench name %q", req.Bench)
	}
	if err := validateBudget(req.Budget); err != nil {
		return err
	}
	if req.DeadlineMS < 0 {
		return badRequest("deadline_ms must be >= 0")
	}
	return nil
}

func validateBudget(b *Budget) error {
	if b == nil {
		return nil
	}
	if b.MaxInstrs < 0 || b.MaxAllocs < 0 || b.MaxBytes < 0 || b.MaxDepth < 0 || b.PollEvery < 0 {
		return badRequest("budget fields must be >= 0")
	}
	return nil
}

// validSelector accepts unary ("richards"), keyword ("fib:", "at:Put:")
// and operator ("+") selectors — printable, no whitespace or quotes.
func validSelector(s string) bool {
	if s == "" || len(s) > 256 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c >= 0x7f || c == '"' || c == '\'' {
			return false
		}
	}
	return true
}

func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '-' || c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Affinity keys and request ids

// AffinityKey derives the cache-affinity key for a request body headed
// to endpoint ("/eval" or "/run"). The key is what a front router
// hashes onto replicas: two requests with the same key exercise the
// same compiled code (the same interned program text, eval expression
// or preloaded benchmark), so landing them on the same replica keeps
// that replica's code cache, inline caches and tier promotions warm.
//
// The derivation deliberately mirrors the server's own interning
// identity (internal/server hashes program and expr texts the same
// way), and it is byte-order independent of the JSON encoding: two
// bodies that decode to the same fields get the same key. The body is
// scanned, not validated: a body the replica will refuse still routes
// by its fields. Returns ok=false when the body does not decode — the
// router falls back to hashing the raw bytes, which still gives
// repeated identical bodies affinity.
func AffinityKey(endpoint string, body []byte) (key string, ok bool) {
	switch endpoint {
	case "/run":
		var req RunBody
		if scanRun(body, &req) != nil || len(req.Bench) == 0 {
			return "", false
		}
		return "bench:" + string(req.Bench), true
	case "/eval":
		var req EvalBody
		if scanEval(body, &req) != nil || (len(req.Expr) == 0 && len(req.Entry) == 0) {
			return "", false
		}
		// program 0xff expr 0xff entry, hashed in one piece: short
		// fields are joined on the stack.
		var stack [512]byte
		joined := append(stack[:0], req.Program...)
		joined = append(append(joined, 0xff), req.Expr...)
		joined = append(append(joined, 0xff), req.Entry...)
		sum := sha256.Sum256(joined)
		var out [len("eval:") + 24]byte
		copy(out[:], "eval:")
		hex.Encode(out[len("eval:"):], sum[:12])
		return string(out[:]), true
	}
	return "", false
}

// RawAffinityKey is the fallback key for bodies AffinityKey cannot
// decode: a hash of the raw bytes. Identical retransmissions still
// stick to one replica; everything else spreads.
func RawAffinityKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "raw:" + hex.EncodeToString(sum[:12])
}

// RequestIDHeader carries the request id end to end: the router mints
// one (or forwards the client's), every replica echoes it on the
// response and stamps it into error bodies.
const RequestIDHeader = "X-Request-Id"

// ValidRequestID reports whether a client-supplied X-Request-Id is
// safe to propagate: non-empty, bounded, printable ASCII with no
// whitespace or quotes (it travels through headers, JSON bodies and
// log lines).
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c >= 0x7f || c == '"' || c == '\'' || c == '\\' {
			return false
		}
	}
	return true
}

// NewRequestID mints a fresh request id (16 random bytes, hex).
func NewRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to fail a request; fall
		// back to a constant that is at least greppable.
		return "rid-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------
// Result encoding

// RunStatsJSON is vm.RunStats on the wire. A reflection test pins the
// two structs field-for-field so new VM counters cannot silently miss
// the wire (and with it both selfrun -json and the server responses).
type RunStatsJSON struct {
	Cycles       int64 `json:"cycles"`
	Instrs       int64 `json:"instrs"`
	Sends        int64 `json:"sends"`
	ICHits       int64 `json:"ic_hits"`
	ICMisses     int64 `json:"ic_misses"`
	Calls        int64 `json:"calls"`
	TypeTests    int64 `json:"type_tests"`
	OvflChecks   int64 `json:"ovfl_checks"`
	BoundsChecks int64 `json:"bounds_checks"`
	BlockValues  int64 `json:"block_values"`
	Allocs       int64 `json:"allocs"`
	AllocBytes   int64 `json:"alloc_bytes"`
	MaxDepth     int   `json:"max_depth"`
	Promotions   int64 `json:"promotions"`
	Harvests     int64 `json:"harvests"`

	// Basic-block-versioning counters (zero under the split strategy).
	BBVVersions     int64 `json:"bbv_versions"`
	BBVCapHits      int64 `json:"bbv_cap_hits"`
	BBVElidedCtx    int64 `json:"bbv_elided_ctx"`
	BBVElidedShape  int64 `json:"bbv_elided_shape"`
	BBVVersionBytes int64 `json:"bbv_version_bytes"`
}

// NewRunStats converts the VM's counters.
func NewRunStats(st vm.RunStats) *RunStatsJSON {
	r := RunStatsOf(st)
	return &r
}

// RunStatsOf is NewRunStats by value, for a reply built on the stack.
func RunStatsOf(st vm.RunStats) RunStatsJSON {
	return RunStatsJSON{
		Cycles: st.Cycles, Instrs: st.Instrs, Sends: st.Sends,
		ICHits: st.ICHits, ICMisses: st.ICMisses, Calls: st.Calls,
		TypeTests: st.TypeTests, OvflChecks: st.OvflChecks,
		BoundsChecks: st.BoundsChecks, BlockValues: st.BlockValues,
		Allocs: st.Allocs, AllocBytes: st.AllocBytes, MaxDepth: st.MaxDepth,
		Promotions: st.Promotions, Harvests: st.Harvests,
		BBVVersions: st.BBVVersions, BBVCapHits: st.BBVCapHits,
		BBVElidedCtx: st.BBVElidedCtx, BBVElidedShape: st.BBVElidedShape,
		BBVVersionBytes: st.BBVVersionBytes,
	}
}

// CompileJSON is vm.CompileRecord on the wire.
type CompileJSON struct {
	Methods     int   `json:"methods"`
	CodeBytes   int   `json:"code_bytes"`
	Degraded    int   `json:"degraded"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheWaits  int64 `json:"cache_waits"`
}

// NewCompile converts a compile record.
func NewCompile(c vm.CompileRecord) *CompileJSON {
	r := CompileOf(c)
	return &r
}

// CompileOf is NewCompile by value.
func CompileOf(c vm.CompileRecord) CompileJSON {
	return CompileJSON{
		Methods: c.Methods, CodeBytes: c.CodeBytes, Degraded: c.Degraded,
		CacheHits: c.CacheHits, CacheMisses: c.CacheMisses, CacheWaits: c.CacheWaits,
	}
}

// PromotionsJSON summarizes adaptive-tier promotion activity.
type PromotionsJSON struct {
	Installed     int64   `json:"installed"`
	Fails         int64   `json:"fails"`
	Discards      int64   `json:"discards"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
}

// ErrorJSON is a guest-level fault on the wire.
type ErrorJSON struct {
	Kind      string   `json:"kind"`
	Message   string   `json:"message"`
	Backtrace []string `json:"backtrace,omitempty"`
	// RequestID echoes the X-Request-Id the failed request carried (or
	// the one the server minted for it), so a failure seen at the
	// router can be matched to the replica's logs and metrics.
	RequestID string `json:"request_id,omitempty"`
}

// NewError renders err; RuntimeErrors carry their kind and Self-level
// backtrace, anything else maps to kind "error".
func NewError(err error) *ErrorJSON {
	out := &ErrorJSON{Kind: vm.KindError.String(), Message: err.Error()}
	var re *vm.RuntimeError
	if errors.As(err, &re) {
		out.Kind = re.Kind.String()
		for _, f := range re.Trace {
			out.Backtrace = append(out.Backtrace, f.String())
		}
	}
	return out
}

// Result is the shared run-result encoding: the body of a successful
// /eval or /run response, and the object `selfrun -json` prints.
type Result struct {
	Value         string          `json:"value"`
	Int           int64           `json:"int"`
	Run           *RunStatsJSON   `json:"run,omitempty"`
	Compile       *CompileJSON    `json:"compile,omitempty"`
	CompileTimeMS float64         `json:"compile_time_ms"`
	TierMode      string          `json:"tier_mode,omitempty"`
	Tiers         map[string]int  `json:"tiers,omitempty"`
	Promotions    *PromotionsJSON `json:"promotions,omitempty"`
	Bench         string          `json:"bench,omitempty"`
	CheckOK       *bool           `json:"check_ok,omitempty"`
	Error         *ErrorJSON      `json:"error,omitempty"`
}

// NewResult builds the shared encoding from a finished run.
func NewResult(v obj.Value, run vm.RunStats, comp vm.CompileRecord, compileTime time.Duration) *Result {
	return &Result{
		Value:         v.String(),
		Int:           v.I(),
		Run:           NewRunStats(run),
		Compile:       NewCompile(comp),
		CompileTimeMS: float64(compileTime) / float64(time.Millisecond),
	}
}

// String renders r for logs and tests, as AppendJSON writes it.
func (r *Result) String() string { return string(r.AppendJSON(nil)) }
