package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is one persistent HTTP/1.1 connection to selectd, written by hand
// so the benchmark owns the three instants it reports: request bytes
// written, first reply byte, reply read.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// reply is one exchange: the status and body, and when it was written,
// first answered and fully read.
type reply struct {
	status               int
	body                 []byte
	sent, firstByte, end time.Time
	err                  error
}

// ioTimeout bounds one exchange; the slowest expected answer (a select
// queued behind a 10k-node partition build) takes about a second.
const ioTimeout = 30 * time.Second

// do sends one request and reads the whole reply. A transport error closes
// the connection; the next call redials.
func (c *client) do(method, path string, body []byte) reply {
	var r reply
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			r.err = err
			return r
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // the default already; failure only costs latency
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	}
	c.buf = append(c.buf[:0], method...)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: selectd\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)

	fail := func(err error) reply {
		r.err = fmt.Errorf("%s %s: %w", method, path, err)
		c.close()
		return r
	}
	if err := c.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return fail(err)
	}
	r.sent = time.Now()
	if _, err := c.conn.Write(c.buf); err != nil {
		return fail(err)
	}
	if _, err := c.br.Peek(1); err != nil {
		return fail(err)
	}
	r.firstByte = time.Now()
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	if err != nil {
		return fail(err)
	}
	r.status = resp.StatusCode
	if resp.Close {
		c.close()
	}
	return r
}
