package router

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"selfgo/internal/metrics"
	"selfgo/internal/wire"
)

// The upstream client is what the router speaks to a replica. It is
// not a general HTTP client: it sends the one request shape the router
// forwards, accepts the replies a selfserved replica (a net/http
// server) emits, and refuses everything else — HTTP/1.0, interim 1xx
// answers, bodyless 204/304, folded or malformed header lines, both
// framings at once, trailers, a reply larger than MaxBody — by failing
// the round trip and dropping the connection. A round trip runs on the
// caller's goroutine: one Write, then buffered reads until the reply is
// whole. See DESIGN.md §6h.
const (
	// maxIdleConns caps an upstream's free list. Connections released
	// beyond it are closed, so a burst of clients leaves at most this
	// many descriptors per replica behind; up to this many closed-loop
	// clients never cause a second dial.
	maxIdleConns = 64

	// dialTimeout bounds connection establishment, as the default
	// transport's dialer did.
	dialTimeout = 30 * time.Second

	// maxHeaderLines bounds a reply's header block; a line is bounded by
	// the connection's read buffer (ReadSlice fails on a longer one).
	maxHeaderLines = 64

	// maxRetained is the largest output buffer a connection keeps: one
	// request near MaxBody must not pin a megabyte per idle connection.
	// (Body buffers come from, and go back to, wire's pool.)
	maxRetained = 64 << 10
)

// errStale marks a pooled connection that failed before the first byte
// of a reply: the replica closed it while it sat idle.
var errStale = errors.New("pooled connection was closed by the replica")

// upstream is the router's client for one replica: a bounded free list
// of persistent connections.
type upstream struct {
	addr    string // host:port dialled
	host    string // Host header
	maxBody int64
	dials   *metrics.Counter

	mu     sync.Mutex
	idle   []*upstreamConn // LIFO: the connection used last is the least likely to have idled out
	closed bool            // Router.Close ran: released connections are closed, not pooled
}

// newUpstream parses a replica's base URL. Only what the client can
// speak is accepted: plain http, no path, query or credentials.
func newUpstream(base string, maxBody int64, dials *metrics.Counter) (*upstream, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Hostname() == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" ||
		(u.Path != "" && u.Path != "/") {
		return nil, errors.New("want http://host:port")
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &upstream{addr: addr, host: u.Host, maxBody: maxBody, dials: dials}, nil
}

// upstreamConn is one persistent connection with its read buffer and a
// reusable output buffer.
type upstreamConn struct {
	net.Conn
	br      *bufio.Reader
	out     []byte
	reused  bool   // served a round trip before: failing ahead of a reply's first byte means it idled out
	timed   bool   // a deadline is set on the connection
	closeFn func() // Close as a func value, built once, for context.AfterFunc
}

func newUpstreamConn(nc net.Conn) *upstreamConn {
	c := &upstreamConn{Conn: nc, br: bufio.NewReader(nc)}
	c.closeFn = func() { _ = c.Close() }
	return c
}

// get pops an idle connection, or dials when there is none — or when
// fresh is set: the resend after a stale connection must not meet
// another one.
func (u *upstream) get(ctx context.Context, deadline time.Time, fresh bool) (*upstreamConn, error) {
	if !fresh {
		u.mu.Lock()
		if n := len(u.idle); n > 0 {
			c := u.idle[n-1]
			u.idle[n-1] = nil
			u.idle = u.idle[:n-1]
			u.mu.Unlock()
			return c, nil
		}
		u.mu.Unlock()
	}
	u.dials.Inc()
	d := net.Dialer{Timeout: dialTimeout, Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return nil, err
	}
	return newUpstreamConn(nc), nil
}

// put pools a connection whose reply was read whole and cleanly.
func (u *upstream) put(c *upstreamConn) {
	c.reused = true
	if cap(c.out) > maxRetained {
		c.out = nil
	}
	u.mu.Lock()
	if u.closed || len(u.idle) >= maxIdleConns {
		u.mu.Unlock()
		_ = c.Close()
		return
	}
	u.idle = append(u.idle, c)
	u.mu.Unlock()
}

// closeIdle closes every pooled connection; with final set, connections
// released later are closed too.
func (u *upstream) closeIdle(final bool) {
	u.mu.Lock()
	idle := u.idle
	u.idle = nil
	u.closed = u.closed || final
	u.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}

func (u *upstream) idleConns() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}

// upstreamRequest is what the router sends: a method and target and,
// for POST, a JSON body with the forwarded headers. Header values must
// be free of control bytes (validHeaderValue) before they get here.
type upstreamRequest struct {
	method, target       string
	rid                  string
	tenantHeader, tenant string
	body                 []byte
	deadline             time.Time // zero: none — a guest run may be legitimately slow
}

// reply is a replica's whole answer. body lives in a pooled buffer
// until release.
type reply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
	buf         *[]byte
}

func (rp *reply) release() {
	if rp.buf != nil {
		wire.PutBuffer(rp.buf)
		rp.buf, rp.body = nil, nil
	}
}

// retryAfterSeconds parses the Retry-After hint (0 if absent or
// malformed).
func (rp *reply) retryAfterSeconds() int {
	n, err := strconv.Atoi(rp.retryAfter)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// roundTrip sends rq and reads the whole reply into rp. ctx ending
// closes the connection in use, which unblocks the read here and tells
// the replica its client is gone. A pooled connection that turns out to
// have idled out is replaced by a fresh one and the request sent again,
// once: nothing of a reply had arrived, and the alternative — a
// transport failover — would send it again too, to another replica.
// Any other failure is returned, and its connection is never pooled.
func (u *upstream) roundTrip(ctx context.Context, rq *upstreamRequest, rp *reply) error {
	c, err := u.get(ctx, rq.deadline, false)
	if err != nil {
		return err
	}
	err = u.exchange(ctx, c, rq, rp)
	if err == errStale && ctx.Err() == nil {
		if c, err = u.get(ctx, rq.deadline, true); err != nil {
			return err
		}
		err = u.exchange(ctx, c, rq, rp)
	}
	return err
}

// exchange runs one request and reply on c, then pools or closes it.
func (u *upstream) exchange(ctx context.Context, c *upstreamConn, rq *upstreamRequest, rp *reply) error {
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.closeFn)
	}
	reusable := false
	err := c.send(u.host, rq)
	if err == nil {
		reusable, err = c.readReply(rp, u.maxBody)
	}
	if !stop() && err == nil {
		// ctx ended as the reply completed: the connection is closing.
		err = ctx.Err()
	}
	if err != nil {
		rp.release()
		_ = c.Close()
		return err
	}
	if reusable {
		u.put(c)
	} else {
		_ = c.Close()
	}
	return nil
}

// send writes the request head and body with one Write.
func (c *upstreamConn) send(host string, rq *upstreamRequest) error {
	if c.timed || !rq.deadline.IsZero() {
		if err := c.SetDeadline(rq.deadline); err != nil {
			return err
		}
		c.timed = !rq.deadline.IsZero()
	}
	out := append(c.out[:0], rq.method...)
	out = append(out, ' ')
	out = append(out, rq.target...)
	out = append(out, " HTTP/1.1\r\nHost: "...)
	out = append(out, host...)
	if rq.method == "POST" {
		out = append(out, "\r\nContent-Type: application/json\r\nX-Request-Id: "...)
		out = append(out, rq.rid...)
		if rq.tenant != "" {
			out = append(out, "\r\n"...)
			out = append(out, rq.tenantHeader...)
			out = append(out, ": "...)
			out = append(out, rq.tenant...)
		}
		out = append(out, "\r\nContent-Length: "...)
		out = strconv.AppendInt(out, int64(len(rq.body)), 10)
	}
	out = append(out, "\r\n\r\n"...)
	out = append(out, rq.body...)
	c.out = out
	_, err := c.Write(out)
	if err != nil && c.reused {
		return errStale
	}
	return err
}

// readReply reads one whole reply. reusable reports that the connection
// is positioned at the start of the next reply and the replica means to
// keep it open.
func (c *upstreamConn) readReply(rp *reply, maxBody int64) (reusable bool, err error) {
	if _, err := c.br.Peek(1); err != nil {
		if c.reused {
			return false, errStale
		}
		return false, err
	}
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	if rp.status, err = parseStatusLine(line); err != nil {
		return false, err
	}

	contentLength, chunked, closing := int64(-1), false, false
	rp.contentType, rp.retryAfter = "", ""
	var seenType, seenRetry bool
	for n := 0; ; n++ {
		if line, err = c.readLine(); err != nil {
			return false, err
		}
		if len(line) == 0 {
			break
		}
		if n == maxHeaderLines {
			return false, errors.New("too many header lines")
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) || !validHeaderValue(line[colon+1:]) {
			return false, fmt.Errorf("malformed header line %q", line)
		}
		name, val := line[:colon], trimOWS(line[colon+1:])
		switch {
		case equalFold(name, "content-length"):
			if contentLength >= 0 {
				return false, errors.New("repeated Content-Length")
			}
			if contentLength, err = parseContentLength(val); err != nil {
				return false, err
			}
		case equalFold(name, "transfer-encoding"):
			if chunked || !equalFold(val, "chunked") {
				return false, fmt.Errorf("unsupported Transfer-Encoding %q", val)
			}
			chunked = true
		case equalFold(name, "connection"):
			closing = closing || hasCloseToken(val)
		case equalFold(name, "content-type"):
			// Relayed to the client: the first wins, as Header.Get had it.
			if !seenType {
				seenType = true
				if string(val) == "application/json" {
					rp.contentType = "application/json" // no allocation for the one value replicas send
				} else {
					rp.contentType = string(val)
				}
			}
		case equalFold(name, "retry-after"):
			if !seenRetry {
				seenRetry, rp.retryAfter = true, string(val)
			}
		}
	}
	if chunked && contentLength >= 0 {
		return false, errors.New("both Content-Length and chunked framing")
	}
	if contentLength > maxBody {
		return false, wire.ErrTooLarge
	}

	rp.buf = wire.GetBuffer()
	buf := *rp.buf
	switch {
	case chunked:
		if buf, err = wire.ReadBody(httputil.NewChunkedReader(c.br), buf, 0, maxBody); err == nil {
			// The chunked reader stops after the last chunk's size line;
			// what must follow is the CRLF that ends an absent trailer.
			var end []byte
			if end, err = c.br.Peek(2); err == nil && string(end) != "\r\n" {
				err = errors.New("chunked reply carries a trailer")
			}
			_, _ = c.br.Discard(len(end))
		}
	case contentLength >= 0:
		if int64(cap(buf)) < contentLength {
			buf = make([]byte, contentLength)
		}
		buf = buf[:contentLength]
		_, err = io.ReadFull(c.br, buf)
	default:
		// Neither framing: the body runs to the end of the connection.
		closing = true
		buf, err = wire.ReadBody(c.br, buf, 0, maxBody)
	}
	*rp.buf, rp.body = buf, buf
	if err != nil {
		return false, fmt.Errorf("reading reply body: %w", err)
	}
	// Bytes past the reply would be taken for the next one's start.
	return !closing && c.br.Buffered() == 0, nil
}

// readLine returns the next line without its ending. A line longer
// than the read buffer fails (bufio.ErrBufferFull).
func (c *upstreamConn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseStatusLine accepts "HTTP/1.1 NNN[ reason]" with a final status
// that carries a body.
func parseStatusLine(line []byte) (int, error) {
	const version = "HTTP/1.1 "
	if len(line) < len(version)+3 || string(line[:len(version)]) != version ||
		(len(line) > len(version)+3 && line[len(version)+3] != ' ') {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status := 0
	for _, d := range line[len(version) : len(version)+3] {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("malformed status line %q", line)
		}
		status = status*10 + int(d-'0')
	}
	if status < 200 || status == 204 || status == 304 {
		return 0, fmt.Errorf("unsupported status %d", status)
	}
	return status, nil
}

func parseContentLength(val []byte) (int64, error) {
	if len(val) == 0 || len(val) > 18 {
		return 0, fmt.Errorf("malformed Content-Length %q", val)
	}
	var n int64
	for _, d := range val {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("malformed Content-Length %q", val)
		}
		n = n*10 + int64(d-'0')
	}
	return n, nil
}

// isToken reports whether b is an RFC 9110 token: what a header name
// must be.
func isToken(b []byte) bool {
	for _, c := range b {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return len(b) > 0
}

// validHeaderValue reports whether v can travel as a header value:
// no control byte but tab.
func validHeaderValue[T string | []byte](v T) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}

func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// equalFold reports whether b equals lower, an all-lower-case ASCII
// string, ignoring ASCII case.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// hasCloseToken reports whether a Connection value lists "close".
func hasCloseToken(val []byte) bool {
	for len(val) > 0 {
		tok := val
		if i := bytes.IndexByte(val, ','); i >= 0 {
			tok, val = val[:i], val[i+1:]
		} else {
			val = nil
		}
		if equalFold(trimOWS(tok), "close") {
			return true
		}
	}
	return false
}
