package router

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"selfgo/internal/metrics"
)

// scriptedConn is a connection whose peer has already said everything
// it will say: reads drain data, then report EOF; writes are accepted.
type scriptedConn struct {
	data   *bytes.Reader
	closed bool
}

func (c *scriptedConn) Read(p []byte) (int, error)       { return c.data.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptedConn) Close() error                     { c.closed = true; return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return nil }
func (c *scriptedConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzUpstreamResponse feeds arbitrary bytes to the upstream client as
// a replica's answer. The client must not panic, must not hold more
// than MaxBody of it, and must never pool a connection it failed on.
// net/http is the oracle for meaning: whatever http.ReadResponse takes
// for a final HTTP/1.1 response, the client reads the same way or
// refuses — and it accepts nothing that net/http refuses.
func FuzzUpstreamResponse(f *testing.F) {
	const maxBody = 8 << 10
	big := strings.Repeat(`{"frame": "a deep backtrace line"}`, 80) // > 2 KB: net/http's server chunks it
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Request-Id: abc\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\nContent-Length: 24\r\n\r\n" + `{"value":"7","int":7}` + "\n  ",
		"HTTP/1.1 422 Unprocessable Entity\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n800\r\n" + big[:0x800] + "\r\n" + "2a0\r\n" + big[0x800:0x800+0x2a0] + "\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Type: application/json\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 2\r\nconnection: Keep-Alive, Close\r\n\r\nok",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n" + strings.Repeat("x", 100),
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\nX-Trailer: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 \n0:\x01\n\n0",                        // net/http refuses a control byte in any header value
		"HTTP/1.1 200 \nTrAnsfer-EnCoding:Chunked\n\n0\n\n", // ... and a bare LF where the trailer's CRLF belongs
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u := &upstream{addr: "fuzz.invalid:1", host: "fuzz", maxBody: maxBody, dials: new(metrics.Counter)}
		sc := &scriptedConn{data: bytes.NewReader(data)}
		u.idle = append(u.idle, newUpstreamConn(sc)) // not marked reused: a failure must not redial
		rq := upstreamRequest{method: "POST", target: "/eval", rid: "fuzz", body: []byte(`{"expr":"1"}`)}
		var rp reply
		err := u.roundTrip(context.Background(), &rq, &rp)
		defer rp.release()

		pooled := u.idleConns()
		switch {
		case err != nil && (pooled != 0 || !sc.closed):
			t.Fatalf("failed (%v) yet pooled=%d closed=%v", err, pooled, sc.closed)
		case err == nil && (pooled == 1) == sc.closed:
			t.Fatalf("answered, pooled=%d closed=%v", pooled, sc.closed)
		case err == nil && pooled == 1 && sc.data.Len() != 0:
			t.Fatalf("pooled a connection with %d unread bytes", sc.data.Len())
		}
		if err == nil && len(rp.body) > maxBody {
			t.Fatalf("accepted a %d-byte body, MaxBody is %d", len(rp.body), maxBody)
		}
		// Failing or not, it stops reading: a head is at most so many lines
		// of at most a read buffer each, a body at most MaxBody and a byte,
		// and the reader runs at most one buffer ahead.
		const readBuf = 4096
		if consumed := len(data) - sc.data.Len(); consumed > (maxHeaderLines+2)*readBuf+maxBody+1+readBuf {
			t.Fatalf("read %d bytes of a reply, MaxBody is %d", consumed, maxBody)
		}

		// The oracle.
		ref, refErr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), &http.Request{Method: "POST"})
		var refBody []byte
		if refErr == nil {
			refBody, refErr = io.ReadAll(ref.Body)
		}
		final := refErr == nil && ref.ProtoMajor == 1 && ref.ProtoMinor == 1 && ref.StatusCode >= 200
		if err != nil {
			return // refusing is always allowed
		}
		if !final {
			t.Fatalf("accepted %d %q, which net/http does not take for a final HTTP/1.1 response (%v)",
				rp.status, rp.body, refErr)
		}
		if rp.status != ref.StatusCode || rp.contentType != ref.Header.Get("Content-Type") ||
			rp.retryAfter != ref.Header.Get("Retry-After") || !bytes.Equal(rp.body, refBody) {
			t.Fatalf("read (%d, %q, %q, %q), net/http reads (%d, %q, %q, %q)",
				rp.status, rp.contentType, rp.retryAfter, rp.body,
				ref.StatusCode, ref.Header.Get("Content-Type"), ref.Header.Get("Retry-After"), refBody)
		}
	})
}
