package main

// A minimal synchronous HTTP/1.1 keep-alive client. One conn is one TCP
// connection driven by one goroutine: write the request, read the response,
// return. net/http's Transport would put two more goroutines and three
// channel hand-offs between the generator and the socket, and their
// scheduling jitter would land in every latency sample of target and
// control alike; this keeps the generator's share of a round trip small
// and flat (harness.client_cpu_share reports it).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// ioTimeout bounds one request/response exchange; no operation of any
// workload comes near it.
const ioTimeout = 20 * time.Second

type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte // request scratch
	body []byte // response body scratch, valid until the next do

	// bytesOut/bytesIn count whole HTTP messages (headers + body).
	bytesOut, bytesIn int64
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) dial() error {
	nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 16<<10)
	return nil
}

// do performs one exchange and returns the status and the body (which
// aliases the conn's scratch). A transport error closes the connection; the
// next call redials.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.dial(); err != nil {
			return 0, nil, err
		}
	}
	b := c.out[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.out = b
	_ = c.c.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.c.Write(b); err != nil {
		c.close()
		return 0, nil, err
	}
	c.bytesOut += int64(len(b))
	status, err := c.readResponse()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	return status, c.body, nil
}

var errMalformed = errors.New("malformed HTTP response")

func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	c.bytesIn += int64(len(line))
	return bytes.TrimRight(line, "\r\n"), nil
}

func (c *conn) readResponse() (int, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, errMalformed
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, errMalformed
	}
	length, chunked, closeAfter := int64(-1), false, false
	for {
		line, err = c.readLine()
		if err != nil {
			return 0, err
		}
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, errMalformed
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(v), 10, 64); err != nil || length < 0 {
				return 0, errMalformed
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.readLine()
			if err != nil {
				return 0, err
			}
			n, err := strconv.ParseInt(string(line), 16, 64)
			if err != nil || n < 0 {
				return 0, errMalformed
			}
			if n == 0 {
				// No trailers are ever sent; consume the final CRLF.
				if _, err = c.readLine(); err != nil {
					return 0, err
				}
				break
			}
			if err = c.readBody(n); err != nil {
				return 0, err
			}
			if _, err = c.readLine(); err != nil {
				return 0, err
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("%w: no body framing", errMalformed)
	}
	if closeAfter {
		c.close()
	}
	return status, nil
}

func (c *conn) readBody(n int64) error {
	off := len(c.body)
	need := off + int(n)
	if cap(c.body) < need {
		grown := make([]byte, off, need+need/2)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:need]
	if _, err := io.ReadFull(c.br, c.body[off:]); err != nil {
		return err
	}
	c.bytesIn += n
	return nil
}
