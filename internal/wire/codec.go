package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire codec: one hand-written JSON scanner for request bodies and
// one encoder for replies. The serving hot path decodes, routes and
// answers through them without reflection and without a heap object
// per field. encoding/json stays their oracle (fuzz_test.go): the
// scanner accepts and rejects what json.Unmarshal does and decodes the
// same fields, and AppendJSON writes the bytes json.Encoder.Encode
// writes.

// ---------------------------------------------------------------------
// Body buffers

// maxRetained is the largest buffer kept for reuse: one body near
// MaxBody must not pin a megabyte in the pool.
const maxRetained = 64 << 10

// buffers holds the byte slices bodies are read into and replies are
// appended to.
var buffers = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// GetBuffer takes a buffer from the pool; PutBuffer returns it. Store
// the grown slice back through the pointer before putting it.
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer returns b to the pool unless it grew past maxRetained.
func PutBuffer(b *[]byte) {
	if cap(*b) <= maxRetained {
		buffers.Put(b)
	}
}

// ErrTooLarge is ReadBody's answer to a body longer than its limit.
var ErrTooLarge = errors.New("body exceeds its byte limit")

// ReadBody reads r to EOF into buf[:0] and fails with ErrTooLarge once
// more than limit bytes have arrived; it never holds more than
// limit+1. hint is the expected size (a Content-Length), <= 0 when
// unknown.
func ReadBody(r io.Reader, buf []byte, hint, limit int64) ([]byte, error) {
	buf = buf[:0]
	if hint >= int64(cap(buf)) {
		// One spare byte, so the read that reports EOF needs no growth.
		buf = make([]byte, 0, min(hint, limit)+1)
	}
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) > limit {
				return buf, ErrTooLarge
			}
			grown := make([]byte, len(buf), min(2*int64(cap(buf)), limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) > limit {
				return buf, ErrTooLarge
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ReadRequest reads a request body of declared length hint (-1 when
// unknown) into buf under limits.MaxBody, answering a RequestError: 413
// past the limit, 400 when the read fails.
func ReadRequest(r io.Reader, hint int64, buf []byte, limits Limits) ([]byte, error) {
	limit := limits.withDefaults().MaxBody
	data, err := ReadBody(r, buf, hint, limit)
	if err == ErrTooLarge {
		return data, &RequestError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	if err != nil {
		return data, badRequest("reading body: %v", err)
	}
	return data, nil
}

// ---------------------------------------------------------------------
// Request scanning

// EvalBody is an /eval body scanned in place. Its text fields alias the
// body they were scanned from (a string holding an escape is unescaped
// into a copy), so they live as long as that buffer does.
type EvalBody struct {
	Program, Expr, Entry []byte
	Args                 []int64
	Budget               *Budget
	DeadlineMS           int64
}

// RunBody is a /run body scanned in place, like EvalBody.
type RunBody struct {
	Bench      []byte
	Budget     *Budget
	DeadlineMS int64
}

// ParseEvalRequest scans and validates an /eval body.
func ParseEvalRequest(data []byte, limits Limits) (EvalBody, error) {
	var req EvalBody
	if err := scanEval(data, &req); err != nil {
		return req, err
	}
	return req, req.validate(limits.withDefaults())
}

// ParseRunRequest scans and validates a /run body.
func ParseRunRequest(data []byte) (RunBody, error) {
	var req RunBody
	if err := scanRun(data, &req); err != nil {
		return req, err
	}
	return req, req.validate()
}

// maxNesting is encoding/json's bound on nested arrays and objects.
const maxNesting = 10000

// Field names, as the request types' json tags spell them.
var (
	evalFields   = []string{"program", "expr", "entry", "args", "budget", "deadline_ms"}
	runFields    = []string{"bench", "budget", "deadline_ms"}
	budgetFields = []string{"max_instrs", "max_allocs", "max_bytes", "max_depth", "poll_every"}
)

// fieldIndex matches a key to a field name as encoding/json does: the
// exact name first, then a case-insensitive (Unicode simple folding)
// match. -1 is a key no field takes.
func fieldIndex(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

func scanEval(data []byte, req *EvalBody) error {
	s := scanner{data: data}
	return s.document(func() error {
		for i := 0; ; i++ {
			key, ok, err := s.member(i)
			if err != nil || !ok {
				return err
			}
			switch fieldIndex(key, evalFields) {
			case 0:
				err = s.text(&req.Program)
			case 1:
				err = s.text(&req.Expr)
			case 2:
				err = s.text(&req.Entry)
			case 3:
				err = s.ints(&req.Args)
			case 4:
				err = s.budget(&req.Budget)
			case 5:
				err = s.int64(&req.DeadlineMS)
			default:
				err = s.skip(1)
			}
			if err != nil {
				return err
			}
		}
	})
}

func scanRun(data []byte, req *RunBody) error {
	s := scanner{data: data}
	return s.document(func() error {
		for i := 0; ; i++ {
			key, ok, err := s.member(i)
			if err != nil || !ok {
				return err
			}
			switch fieldIndex(key, runFields) {
			case 0:
				err = s.text(&req.Bench)
			case 1:
				err = s.budget(&req.Budget)
			case 2:
				err = s.int64(&req.DeadlineMS)
			default:
				err = s.skip(1)
			}
			if err != nil {
				return err
			}
		}
	})
}

// scanner reads one JSON text in place. It checks the whole text's
// syntax, as encoding/json does before it decodes anything, and stores
// into a field the way json.Unmarshal would: null leaves a string or
// number as it was and clears a slice or pointer, a repeated key
// overwrites (a repeated object merges into the one already there), and
// a value of the wrong type rejects the body.
type scanner struct {
	data []byte
	off  int
}

func malformed(format string, args ...any) error {
	return badRequest("malformed JSON: "+format, args...)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected reports the byte at s.off (or the end of input) as out
// of place.
func (s *scanner) unexpected() error {
	if s.off >= len(s.data) {
		return malformed("unexpected end of JSON input")
	}
	return malformed("invalid character %q at offset %d", s.data[s.off], s.off)
}

// mismatch rejects a value of the wrong type for its field.
func (s *scanner) mismatch(want string) error {
	return malformed("cannot unmarshal the value at offset %d into a %s field", s.off, want)
}

// document scans the whole body: an object, whose members object
// consumes after the opening brace, or null, which sets nothing.
func (s *scanner) document(object func() error) error {
	switch s.peek() {
	case '{':
		s.off++
		if err := object(); err != nil {
			return err
		}
	case 'n':
		if err := s.null(); err != nil {
			return err
		}
	default:
		if s.off < len(s.data) {
			return s.mismatch("object")
		}
		return s.unexpected()
	}
	if s.peek(); s.off != len(s.data) {
		return malformed("invalid character %q after top-level value", s.data[s.off])
	}
	return nil
}

// member advances to member i of an object whose '{' is consumed: it
// returns the member's key with s.off at its value, or ok=false once
// the closing '}' is consumed.
func (s *scanner) member(i int) (key []byte, ok bool, err error) {
	c := s.peek()
	if c == '}' {
		s.off++
		return nil, false, nil
	}
	if i > 0 {
		if c != ',' {
			return nil, false, s.unexpected()
		}
		s.off++
		c = s.peek()
	}
	if c != '"' {
		return nil, false, s.unexpected()
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.unexpected()
	}
	s.off++
	return key, true, nil
}

// element advances to element i of an array whose '[' is consumed:
// ok=false once the closing ']' is consumed.
func (s *scanner) element(i int) (ok bool, err error) {
	c := s.peek()
	if c == ']' {
		s.off++
		return false, nil
	}
	if i > 0 {
		if c != ',' {
			return false, s.unexpected()
		}
		s.off++
	}
	return true, nil
}

// null consumes the literal null.
func (s *scanner) null() error { return s.literal("null") }

func (s *scanner) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.off:], []byte(word)) {
		return malformed("invalid literal at offset %d", s.off)
	}
	s.off += len(word)
	return nil
}

// text scans a string value into *dst; null leaves *dst as it was.
func (s *scanner) text(dst *[]byte) error {
	switch s.peek() {
	case '"':
		v, err := s.str()
		if err != nil {
			return err
		}
		*dst = v
		return nil
	case 'n':
		return s.null()
	}
	return s.mismatch("string")
}

// int64 scans an integer into *dst; null leaves *dst as it was. A
// fraction, an exponent or a value past int64 rejects the body, as it
// does for json.Unmarshal into an int64.
func (s *scanner) int64(dst *int64) error {
	c := s.peek()
	if c == 'n' {
		return s.null()
	}
	if c != '-' && (c < '0' || c > '9') {
		return s.mismatch("number")
	}
	start := s.off
	t, err := s.number()
	if err != nil {
		return err
	}
	v, ok := parseInt(t)
	if !ok {
		return malformed("number %s at offset %d does not fit an int64", t, start)
	}
	*dst = v
	return nil
}

// int scans an integer into an int field.
func (s *scanner) int(dst *int) error {
	v := int64(*dst)
	if err := s.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return malformed("number %d does not fit an int", v)
	}
	*dst = int(v)
	return nil
}

// parseInt is strconv.ParseInt(t, 10, 64) over bytes the number grammar
// has already checked.
func parseInt(t []byte) (int64, bool) {
	neg := t[0] == '-'
	if neg {
		t = t[1:]
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range t {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true // limit+1 wraps to MinInt64, as it should
	}
	return int64(u), true
}

// ints scans an array of integers into *dst the way json.Unmarshal
// fills a slice: it reuses *dst's backing array, a null element keeps
// the value already at its index, [] leaves an empty non-nil slice,
// and null clears the slice.
func (s *scanner) ints(dst *[]int64) error {
	switch s.peek() {
	case 'n':
		if err := s.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
		s.off++
	default:
		return s.mismatch("array")
	}
	a := *dst
	i := 0
	for ; ; i++ {
		ok, err := s.element(i)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i < cap(a) {
			a = a[:i+1]
		} else {
			a = append(a, 0)
		}
		if err := s.int64(&a[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		a = []int64{}
	}
	*dst = a[:i]
	return nil
}

// budget scans a budget object into **dst, into the Budget already
// there if there is one; null clears it.
func (s *scanner) budget(dst **Budget) error {
	switch s.peek() {
	case 'n':
		if err := s.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '{':
		s.off++
	default:
		return s.mismatch("object")
	}
	if *dst == nil {
		*dst = new(Budget)
	}
	b := *dst
	for i := 0; ; i++ {
		key, ok, err := s.member(i)
		if err != nil || !ok {
			return err
		}
		switch fieldIndex(key, budgetFields) {
		case 0:
			err = s.int64(&b.MaxInstrs)
		case 1:
			err = s.int64(&b.MaxAllocs)
		case 2:
			err = s.int64(&b.MaxBytes)
		case 3:
			err = s.int(&b.MaxDepth)
		case 4:
			err = s.int64(&b.PollEvery)
		default:
			err = s.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

// number scans a number as the JSON grammar spells one and returns its
// text.
func (s *scanner) number() ([]byte, error) {
	d, start := s.data, s.off
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.off = i
		return nil, s.unexpected()
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.off = i
			return nil, s.unexpected()
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.off = i
			return nil, s.unexpected()
		}
	}
	s.off = i
	return d[start:i], nil
}

// str scans the string at s.off and returns its contents unescaped: a
// subslice of the body when nothing needed unescaping, else a copy in
// which invalid UTF-8 and unpaired surrogates have become U+FFFD, as
// json.Unmarshal leaves them.
func (s *scanner) str() ([]byte, error) {
	d := s.data
	start := s.off + 1
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[start:i], nil
		case c == '\\':
			return s.unescape(start, i)
		case c < ' ':
			s.off = i
			return nil, s.unexpected()
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(start, i)
			}
			i += size
		}
	}
	s.off = len(d)
	return nil, s.unexpected()
}

// unescape finishes str from i, the first byte that needs rewriting,
// into a copy.
func (s *scanner) unescape(start, i int) ([]byte, error) {
	d := s.data
	out := append(make([]byte, 0, i-start+16), d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.off = i + 1
			return out, nil
		case c < ' ':
			s.off = i
			return nil, s.unexpected()
		case c == '\\':
			if i+1 >= len(d) {
				s.off = len(d)
				return nil, s.unexpected()
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					return nil, malformed("invalid \\u escape at offset %d", i)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d[i:])); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				s.off = i + 1
				return nil, s.unexpected()
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	s.off = len(d)
	return nil, s.unexpected()
}

// hex4 decodes the \uXXXX escape at the start of b, -1 if there is
// none.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip scans over one value of any type, found inside depth open
// containers, checking its syntax and nothing else.
func (s *scanner) skip(depth int) error {
	// open records the containers skip has entered, innermost last: a
	// set bit is an object, a clear one an array.
	var open [maxNesting/64 + 1]uint64
	n := 0
	isObject := func() bool { return open[(n-1)/64]&(1<<((n-1)%64)) != 0 }
	var err error
	for {
		// A value starts here.
		switch c := s.peek(); {
		case c == '{' || c == '[':
			if depth+n+1 > maxNesting {
				return malformed("exceeded max depth at offset %d", s.off)
			}
			s.off++
			if c == '{' {
				open[n/64] |= 1 << (n % 64)
			} else {
				open[n/64] &^= 1 << (n % 64)
			}
			n++
			more := false
			if c == '{' {
				_, more, err = s.member(0)
			} else {
				more, err = s.element(0)
			}
			if err != nil {
				return err
			}
			if more {
				continue // a member or element starts
			}
			n-- // an empty container is a whole value
		case c == '"':
			_, err = s.str()
		case c == 't':
			err = s.literal("true")
		case c == 'f':
			err = s.literal("false")
		case c == 'n':
			err = s.null()
		case c == '-' || c >= '0' && c <= '9':
			_, err = s.number()
		default:
			err = s.unexpected()
		}
		if err != nil {
			return err
		}
		// A value ended: close the containers it ends, or move on to the
		// next member or element.
		for {
			if n == 0 {
				return nil
			}
			more := false
			if isObject() {
				_, more, err = s.member(1)
			} else {
				more, err = s.element(1)
			}
			if err != nil {
				return err
			}
			if more {
				break
			}
			n--
		}
	}
}

// ---------------------------------------------------------------------
// Reply encoding

// jsonContentType is every JSON reply's Content-Type, one slice shared
// by all of them: net/http only reads header values.
var jsonContentType = []string{"application/json"}

// SetJSONContentType marks h's reply as JSON without allocating.
func SetJSONContentType(h http.Header) { h["Content-Type"] = jsonContentType }

// WriteJSON answers res with status as one line of compact JSON,
// appended into a pooled buffer: replies are read by routers and
// clients, and every byte of one is copied at each hop.
func WriteJSON(w http.ResponseWriter, status int, res *Result) {
	buf := GetBuffer()
	*buf = res.AppendJSON((*buf)[:0])
	SetJSONContentType(w.Header())
	w.WriteHeader(status)
	_, _ = w.Write(*buf) // a failed write means the client left; there is no one to tell
	PutBuffer(buf)
}

// AppendJSON appends r as json.NewEncoder(w).Encode(r) writes it: one
// line of compact JSON with HTML-safe string escapes, fields in
// declaration order less the empty omitempty ones, map keys sorted,
// floats in encoding/json's ES6 form. encoding/json refuses NaN and
// ±Inf; no constructor here produces one, and AppendJSON writes them as
// strconv spells them.
func (r *Result) AppendJSON(b []byte) []byte {
	b = append(b, `{"value":`...)
	b = appendString(b, r.Value)
	b = append(b, `,"int":`...)
	b = strconv.AppendInt(b, r.Int, 10)
	if r.Run != nil {
		b = r.Run.appendJSON(append(b, `,"run":`...))
	}
	if c := r.Compile; c != nil {
		b = append(b, `,"compile":{"methods":`...)
		b = strconv.AppendInt(b, int64(c.Methods), 10)
		b = appendInt(b, `,"code_bytes":`, int64(c.CodeBytes))
		b = appendInt(b, `,"degraded":`, int64(c.Degraded))
		b = appendInt(b, `,"cache_hits":`, c.CacheHits)
		b = appendInt(b, `,"cache_misses":`, c.CacheMisses)
		b = appendInt(b, `,"cache_waits":`, c.CacheWaits)
		b = append(b, '}')
	}
	b = appendFloat(append(b, `,"compile_time_ms":`...), r.CompileTimeMS)
	if r.TierMode != "" {
		b = appendString(append(b, `,"tier_mode":`...), r.TierMode)
	}
	if len(r.Tiers) > 0 {
		b = appendCounts(append(b, `,"tiers":`...), r.Tiers)
	}
	if p := r.Promotions; p != nil {
		b = append(b, `,"promotions":{"installed":`...)
		b = strconv.AppendInt(b, p.Installed, 10)
		b = appendInt(b, `,"fails":`, p.Fails)
		b = appendInt(b, `,"discards":`, p.Discards)
		b = appendFloat(append(b, `,"mean_latency_ms":`...), p.MeanLatencyMS)
		b = append(b, '}')
	}
	if r.Bench != "" {
		b = appendString(append(b, `,"bench":`...), r.Bench)
	}
	if r.CheckOK != nil {
		b = strconv.AppendBool(append(b, `,"check_ok":`...), *r.CheckOK)
	}
	if e := r.Error; e != nil {
		b = appendString(append(b, `,"error":{"kind":`...), e.Kind)
		b = appendString(append(b, `,"message":`...), e.Message)
		if len(e.Backtrace) > 0 {
			b = append(b, `,"backtrace":[`...)
			for i, f := range e.Backtrace {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, f)
			}
			b = append(b, ']')
		}
		if e.RequestID != "" {
			b = appendString(append(b, `,"request_id":`...), e.RequestID)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

func (st *RunStatsJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"cycles":`...)
	b = strconv.AppendInt(b, st.Cycles, 10)
	b = appendInt(b, `,"instrs":`, st.Instrs)
	b = appendInt(b, `,"sends":`, st.Sends)
	b = appendInt(b, `,"ic_hits":`, st.ICHits)
	b = appendInt(b, `,"ic_misses":`, st.ICMisses)
	b = appendInt(b, `,"calls":`, st.Calls)
	b = appendInt(b, `,"type_tests":`, st.TypeTests)
	b = appendInt(b, `,"ovfl_checks":`, st.OvflChecks)
	b = appendInt(b, `,"bounds_checks":`, st.BoundsChecks)
	b = appendInt(b, `,"block_values":`, st.BlockValues)
	b = appendInt(b, `,"allocs":`, st.Allocs)
	b = appendInt(b, `,"alloc_bytes":`, st.AllocBytes)
	b = appendInt(b, `,"max_depth":`, int64(st.MaxDepth))
	b = appendInt(b, `,"promotions":`, st.Promotions)
	b = appendInt(b, `,"harvests":`, st.Harvests)
	b = appendInt(b, `,"bbv_versions":`, st.BBVVersions)
	b = appendInt(b, `,"bbv_cap_hits":`, st.BBVCapHits)
	b = appendInt(b, `,"bbv_elided_ctx":`, st.BBVElidedCtx)
	b = appendInt(b, `,"bbv_elided_shape":`, st.BBVElidedShape)
	b = appendInt(b, `,"bbv_version_bytes":`, st.BBVVersionBytes)
	return append(b, '}')
}

// appendInt appends a member's key (with its leading comma) and value.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendCounts appends a map as encoding/json does: keys sorted
// bytewise. A handful of keys sort on the stack.
func appendCounts(b []byte, m map[string]int) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = strconv.AppendInt(append(b, ':'), int64(m[k]), 10)
	}
	return append(b, '}')
}

// appendFloat writes f in encoding/json's form: like %g with ES6's
// exponent cut-offs, and no zero padding in the exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as encoding/json does with HTML escaping on:
// quote, backslash and control characters escaped (\b \f \n \r \t by
// name), <, > and & as \u003c, \u003e and \u0026, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
