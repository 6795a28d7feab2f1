package router

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"selfgo"
	"selfgo/internal/server"
)

// TestHotRequestHostBytes pins the Go heap bytes and objects the whole
// process spends on one hot /eval through router and replica on
// loopback: the topology of the benchmark's serve.hot (eight repeated
// expressions, every one an intern and code-cache hit, a two-worker
// replica). The client is a raw connection that writes prebuilt
// requests and reads replies into one buffer, so what is counted is
// the router's and the replica's work, net/http's included. Each pin is
// 1.25 times what was measured (averaged over 2,000 requests after a
// warm-up): 5,948 B and 70.0 objects. About four fifths of the bytes
// are net/http's: request parsing, the header maps and the header
// snapshot, in both servers. Before the wire codec, with encoding/json
// decoding each body twice and a timeout context per request, this
// measured 9,353 B and 112.0 objects.
func TestHotRequestHostBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector changes what the host allocates")
	}
	const pinBytes, pinAllocs = 7435, 88
	srv, err := server.New(server.Config{Compiler: selfgo.NewSELF, Mode: selfgo.ModeOpt, Pool: 2, Benches: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	// One health probe at start; none while measuring.
	_, front := newTestRouter(t, Config{Replicas: []string{replica.URL}, HealthEvery: time.Hour})

	conn, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &rawClient{conn: conn, br: bufio.NewReader(conn)}
	for k := int64(1); k <= 8; k++ {
		n := 100 + 25*k
		body := fmt.Sprintf(`{"expr":"| s <- %d | 1 upTo: %d Do: [:i | s: s + i]. s"}`, k, n)
		c.reqs = append(c.reqs, []byte(fmt.Sprintf(
			"POST /eval HTTP/1.1\r\nHost: selfrouter\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(body), body)))
		c.wants = append(c.wants, []byte(`"int":`+strconv.FormatInt(k+n*(n-1)/2, 10)+`,`))
	}
	for i := 0; i < 200; i++ {
		c.do(t, i)
	}
	const n = 2000
	measure := func() (bytes, allocs float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			c.do(t, i)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / n, float64(m1.Mallocs-m0.Mallocs) / n
	}
	// Another goroutine's allocation can only add to either count, so a
	// round over a pin is retried and the least round counts.
	b, a := measure()
	for retry := 0; retry < 2 && (b > pinBytes || a > pinAllocs); retry++ {
		b2, a2 := measure()
		b, a = min(b, b2), min(a, a2)
	}
	t.Logf("%.0f B and %.1f objects per hot request (pins %d, %d)", b, a, pinBytes, pinAllocs)
	if b > pinBytes {
		t.Errorf("%.0f host bytes per hot request, pinned at %d", b, pinBytes)
	}
	if a > pinAllocs {
		t.Errorf("%.1f host objects per hot request, pinned at %d", a, pinAllocs)
	}
}

// rawClient speaks just enough HTTP/1.1 to post prebuilt requests and
// check their replies without allocating.
type rawClient struct {
	conn  net.Conn
	br    *bufio.Reader
	reqs  [][]byte
	wants [][]byte
	body  []byte
}

func (c *rawClient) do(t *testing.T, i int) {
	t.Helper()
	if _, err := c.conn.Write(c.reqs[i%len(c.reqs)]); err != nil {
		t.Fatal(err)
	}
	status, err := c.br.ReadSlice('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(status, []byte("HTTP/1.1 200 ")) {
		t.Fatalf("status line %q", status)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if len(line) <= 2 {
			break
		}
		const cl = "Content-Length: "
		if bytes.HasPrefix(line, []byte(cl)) {
			length = 0
			for _, d := range bytes.TrimSpace(line[len(cl):]) {
				length = length*10 + int(d-'0')
			}
		}
	}
	if length < 0 {
		t.Fatal("reply without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(c.body, c.wants[i%len(c.wants)]) {
		t.Fatalf("reply %s, want %s", c.body, c.wants[i%len(c.wants)])
	}
}
