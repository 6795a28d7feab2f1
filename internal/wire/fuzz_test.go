package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"selfgo/internal/ast"
	"selfgo/internal/vm"
)

// The fuzzers here hold the hand-written codec to encoding/json: the
// request decoders to json.Unmarshal plus the validation the decoders
// had when they were built on it, the reply encoder to
// json.Encoder.Encode, and AffinityKey to its json.Unmarshal
// derivation.

// oracleRead is the body read the decoders had before the codec.
func oracleRead(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	if int64(len(data)) > limit {
		return nil, &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	return data, nil
}

// oracleEval decodes an /eval body with encoding/json.
func oracleEval(data []byte, limits Limits) (*EvalRequest, error) {
	limits = limits.withDefaults()
	data, err := oracleRead(bytes.NewReader(data), limits.MaxBody)
	if err != nil {
		return nil, err
	}
	var req EvalRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, badRequest("malformed JSON: %v", err)
	}
	if len(req.Program) > limits.MaxProgram {
		return nil, &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("program exceeds %d bytes", limits.MaxProgram)}
	}
	if len(req.Expr) > limits.MaxExpr {
		return nil, &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("expr exceeds %d bytes", limits.MaxExpr)}
	}
	switch {
	case req.Expr == "" && req.Entry == "":
		return nil, badRequest("one of expr or entry is required")
	case req.Expr != "" && req.Entry != "":
		return nil, badRequest("expr and entry are mutually exclusive")
	}
	if req.Entry != "" {
		if !validSelector(req.Entry) {
			return nil, badRequest("bad entry selector %q", req.Entry)
		}
		if want := ast.NumArgs(req.Entry); want != len(req.Args) {
			return nil, badRequest("entry %q takes %d argument(s), got %d", req.Entry, want, len(req.Args))
		}
	}
	if req.Expr != "" && len(req.Args) > 0 {
		return nil, badRequest("args require an entry selector")
	}
	if len(req.Args) > limits.MaxArgs {
		return nil, badRequest("too many args (max %d)", limits.MaxArgs)
	}
	if err := validateBudget(req.Budget); err != nil {
		return nil, err
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms must be >= 0")
	}
	return &req, nil
}

// oracleRun decodes a /run body with encoding/json.
func oracleRun(data []byte, limits Limits) (*RunRequest, error) {
	limits = limits.withDefaults()
	data, err := oracleRead(bytes.NewReader(data), limits.MaxBody)
	if err != nil {
		return nil, err
	}
	var req RunRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, badRequest("malformed JSON: %v", err)
	}
	if req.Bench == "" {
		return nil, badRequest("bench is required")
	}
	if !validName(req.Bench) {
		return nil, badRequest("bad bench name %q", req.Bench)
	}
	if err := validateBudget(req.Budget); err != nil {
		return nil, err
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms must be >= 0")
	}
	return &req, nil
}

// sameOutcome fails t unless the codec and the oracle both accepted
// with equal fields, or both rejected with the same status and message
// (a malformed body's message may differ after its prefix).
func sameOutcome(t *testing.T, data []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: codec err %v, encoding/json err %v", data, gotErr, wantErr)
	}
	if gotErr == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: codec decoded %+v, encoding/json %+v", data, got, want)
		}
		return
	}
	var g, w *RequestError
	if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
		t.Fatalf("body %q: non-RequestError: %T %v / %T %v", data, gotErr, gotErr, wantErr, wantErr)
	}
	const malformedPrefix = "malformed JSON:"
	if g.Status != w.Status ||
		(strings.HasPrefix(w.Msg, malformedPrefix) != strings.HasPrefix(g.Msg, malformedPrefix)) ||
		(!strings.HasPrefix(w.Msg, malformedPrefix) && g.Msg != w.Msg) {
		t.Fatalf("body %q: codec rejects %d %q, encoding/json %d %q", data, g.Status, g.Msg, w.Status, w.Msg)
	}
}

// FuzzDecodeEvalRequest: whatever the bytes, DecodeEvalRequest accepts
// or rejects exactly what encoding/json and the validation did, with
// the same status, and decodes the same fields — case-folded and
// repeated keys, null, \u escapes, invalid UTF-8 and int64 overflow
// included.
func FuzzDecodeEvalRequest(f *testing.F) {
	seeds := []string{
		`{"expr": "3 + 4"}`,
		`{"expr": "| s <- 0 | 1 upTo: 10 Do: [ :i | s: s + i ]. s"}`,
		`{"entry": "richards"}`,
		`{"entry": "fib:", "args": [30]}`,
		`{"entry": "at:Put:", "args": [1, 2]}`,
		`{"program": "double: n = ( n + n ).", "entry": "double:", "args": [21]}`,
		`{"expr": "1", "budget": {"max_instrs": 100000, "max_allocs": 50, "max_depth": 10, "poll_every": 64}}`,
		`{"expr": "1", "deadline_ms": 250}`,
		`{"expr": "1", "budget": {"max_instrs": -1}}`,
		`{"expr": "1", "deadline_ms": -9}`,
		`{"entry": "fib:", "args": [1, 2, 3]}`,
		`{"expr": "1", "entry": "both"}`,
		`{"args": [1]}`,
		`{}`,
		`{"expr": "1", "unknown_field": {"nested": [1, 2, {"deep": true}]}}`,
		`{"budget": {"max_instrs": 9223372036854775807}, "expr": "x"}`,
		`{"budget": {"max_instrs": 9223372036854775808}, "expr": "x"}`, // int64 overflow
		`{"deadline_ms": -9223372036854775808, "expr": "x"}`,
		`{"deadline_ms": 1.0, "expr": "x"}`,
		`{"deadline_ms": 1e3, "expr": "x"}`,
		`{"deadline_ms": -0, "expr": "x"}`,
		`{"deadline_ms": 01, "expr": "x"}`,
		`{"expr": 42}`,
		`{"args": "not an array", "entry": "f:"}`,
		`[1,2,3]`,
		`null`,
		` null `,
		`nul`,
		`"just a string"`,
		`{"expr":"` + strings.Repeat("a", 200) + `"}`,
		`{"entry":"bad sel"}`,
		"{\"entry\":\"\x00\"}",
		"\xff\xfe not json",
		`{"expr":"1"} trailing`,
		``,
		`{"EXPR": "1"}`,
		`{"Expr": "a", "expr": "b"}`,
		`{"expr": "a", "expr": null}`,
		`{"dEaDlInE_mS": 5, "expr": "a"}`,
		"{\"deadline_m\u017f\": 5, \"expr\": \"a\"}", // U+017F folds to s
		`{"expr": "3 + 4"}`,
		`{"expr": "1"}`,
		`{"expr": "😀 \ud83d x \ude00 \\ \/ \b\f\n\r\t \""}`,
		"{\"expr\": \"\xed\xa0\x80 \xc3\x28 ok\"}",
		`{"expr": "bad \x escape"}`,
		`{"expr": "bad \u12 escape"}`,
		`{"entry": "f:", "args": [5, 6], "args": [null]}`,
		`{"entry": "f:g:h:", "args": [1, 2, 3], "args": [7], "args": [null, null, null]}`,
		`{"entry": "f:", "args": [], "args": [null]}`,
		`{"entry": "f", "args": []}`,
		`{"entry": "f", "args": null}`,
		`{"entry": "f:", "args": [1,]}`,
		`{"expr": "1", "budget": {"max_instrs": 5}, "budget": {"max_allocs": 6}}`,
		`{"expr": "1", "budget": {"max_instrs": 5}, "budget": null}`,
		`{"expr": "1", "budget": {}}`,
		`{"expr": "1", "budget": []}`,
		`{"expr": "1", "budget": {"max_depth": 1.5}}`,
		`{"expr": "1",}`,
		`{"expr" "1"}`,
		`{,}`,
		`{"expr": "1", "x": [[[[[]]]], {"a": {"b": [true, false, null, -1.5e+7]}}]}`,
		`{"expr": "1", "x": ` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"expr": "1", "x": ` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
		`{"expr": "1", "x": ` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"expr": "1", "x": tru}`,
		`{"expr": "1", "x": "\q"}`,
		"{\"expr\": \"tab\tinside\"}",
		`{"expr": "<b>&amp;</b>"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	limits := Limits{MaxBody: 1 << 16, MaxProgram: 1024, MaxExpr: 512, MaxArgs: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeEvalRequest(bytes.NewReader(data), limits)
		want, wantErr := oracleEval(data, limits)
		sameOutcome(t, data, got, want, gotErr, wantErr)
	})
}

// FuzzDecodeRunRequest holds the /run decoder to encoding/json the same
// way.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, s := range []string{
		`{"bench": "queens"}`,
		`{"bench": "richards", "deadline_ms": 1000}`,
		`{"bench": ""}`,
		`{"bench": "a/b"}`,
		`{"bench": "x", "budget": {"max_instrs": -3}}`,
		`{`,
		`{"bench": "` + strings.Repeat("b", 300) + `"}`,
		`{"BENCH": "sumTo", "bench": null}`,
		`{"bench": "sumTo"}`,
		`{"bench": "sumTo", "budget": {"poll_every": 9223372036854775808}}`,
		`null`,
		`{"bench": ["sumTo"]}`,
	} {
		f.Add([]byte(s))
	}
	limits := Limits{MaxBody: 2048}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeRunRequest(bytes.NewReader(data), limits)
		want, wantErr := oracleRun(data, limits)
		sameOutcome(t, data, got, want, gotErr, wantErr)
	})
}

// FuzzAppendResult: AppendJSON writes the bytes encoding/json's Encoder
// writes for the same Result — string escapes, float forms, omitted
// fields and map key order included.
func FuzzAppendResult(f *testing.F) {
	f.Add("4951", int64(4951), 0.0421, "opt", "optimizing", int64(3), "", "", "", "", uint8(0x0f))
	f.Add("a <b> & \"c\" \\ \u2028\u2029 \x01\b\f\n\r\t\x7f", int64(-1), 1e-7, "adaptive", "baseline", int64(-2), "sumTo", "boom", "lobby>>f @3\nlobby>>g @9", "rid-1", uint8(0xff))
	f.Add("\xff\xfe\xed\xa0\x80 ok é", int64(math.MinInt64), 1e21, "", "", int64(0), "b", "", "", "", uint8(0xf0))
	f.Add("", int64(math.MaxInt64), -123456.789, "x", "zzz", int64(1), "", "m", "", "", uint8(0x44))
	f.Add("v", int64(0), 5e-324, "", "", int64(0), "", "", "", "", uint8(0x80))
	f.Fuzz(func(t *testing.T, value string, n int64, ms float64, mode, tier string, count int64, bench, msg, trace, rid string, flags uint8) {
		if math.IsNaN(ms) || math.IsInf(ms, 0) {
			t.Skip("encoding/json refuses NaN and ±Inf; a Result never carries them")
		}
		r := &Result{Value: value, Int: n, CompileTimeMS: ms, TierMode: mode, Bench: bench}
		if flags&1 != 0 {
			var st vm.RunStats
			rv := reflect.ValueOf(&st).Elem()
			for i := 0; i < rv.NumField(); i++ {
				rv.Field(i).SetInt(n + int64(i)*count)
			}
			r.Run = NewRunStats(st)
		}
		if flags&2 != 0 {
			r.Compile = NewCompile(vm.CompileRecord{Methods: int(count), CodeBytes: int(n), Degraded: 1,
				CacheHits: n, CacheMisses: count, CacheWaits: -n})
		}
		if flags&4 != 0 {
			r.Tiers = map[string]int{tier: int(count), "optimizing": 3, "baseline": int(n)}
		}
		if flags&8 != 0 {
			r.Promotions = &PromotionsJSON{Installed: n, Fails: count, Discards: -count, MeanLatencyMS: ms / 3}
		}
		if flags&16 != 0 {
			ok := flags&32 != 0
			r.CheckOK = &ok
		}
		if flags&64 != 0 {
			r.Error = &ErrorJSON{Kind: mode, Message: msg, RequestID: rid}
			if trace != "" {
				r.Error.Backtrace = strings.Split(trace, "\n")
			}
		}
		if flags&128 != 0 && r.Tiers == nil {
			r.Tiers = map[string]int{}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON(nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON wrote\n%s\nencoding/json writes\n%s", got, want.Bytes())
		}
	})
}

// oracleAffinityKey is AffinityKey's derivation over encoding/json.
func oracleAffinityKey(endpoint string, body []byte) (string, bool) {
	switch endpoint {
	case "/run":
		var req RunRequest
		if err := json.Unmarshal(body, &req); err != nil || req.Bench == "" {
			return "", false
		}
		return "bench:" + req.Bench, true
	case "/eval":
		var req EvalRequest
		if err := json.Unmarshal(body, &req); err != nil || (req.Expr == "" && req.Entry == "") {
			return "", false
		}
		h := sha256.New()
		io.WriteString(h, req.Program)
		h.Write([]byte{0xff})
		io.WriteString(h, req.Expr)
		h.Write([]byte{0xff})
		io.WriteString(h, req.Entry)
		return "eval:" + hex.EncodeToString(h.Sum(nil)[:12]), true
	}
	return "", false
}

// FuzzAffinityKey: the router's key is the one the encoding/json
// derivation gives, for every body, so no key moves a program to
// another replica.
func FuzzAffinityKey(f *testing.F) {
	for _, s := range []string{
		`{"expr": "3 + 4"}`,
		`{"expr": "3 + 4", "program": "f = ( 1 ).", "entry": "f"}`,
		`{"entry": "fib:", "args": [10]}`,
		`{"bench": "richards"}`,
		`{"expr": "` + strings.Repeat("x", 600) + `"}`,
		`{"expr": "1", "budget": {"max_instrs": -1}}`,
		`{"expr": ""}`,
		`{"expr": "é\ud800"}`,
		`{`,
	} {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	f.Fuzz(func(t *testing.T, run bool, body []byte) {
		endpoint := "/eval"
		if run {
			endpoint = "/run"
		}
		got, gotOK := AffinityKey(endpoint, body)
		want, wantOK := oracleAffinityKey(endpoint, body)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s %q: key %q/%v, encoding/json derivation %q/%v", endpoint, body, got, gotOK, want, wantOK)
		}
	})
}
