package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The wire client against net/http's own server: fixed-length and chunked
// bodies, keep-alive across requests, and a redial after Connection: close.
func TestConnSpeaksHTTP(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 4096) // 64 KiB: chunked by net/http
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/echo":
			body, _ := io.ReadAll(r.Body)
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, "%s %s %s", r.Method, r.Header.Get("Content-Type"), body)
		case "/big":
			w.(http.Flusher).Flush() // forces chunked encoding
			io.WriteString(w, big)
		case "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "bye")
		}
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()

	for i := 0; i < 3; i++ {
		status, body, err := c.do("POST", "/echo", []byte(`{"a":1}`))
		if err != nil || status != 201 || string(body) != `POST application/json {"a":1}` {
			t.Fatalf("echo %d: %d %q %v", i, status, body, err)
		}
	}
	status, body, err := c.do("GET", "/big", nil)
	if err != nil || status != 200 || string(body) != big {
		t.Fatalf("chunked: %d, %d bytes, %v", status, len(body), err)
	}
	if status, body, err = c.do("GET", "/close", nil); err != nil || status != 200 || string(body) != "bye" {
		t.Fatalf("close: %d %q %v", status, body, err)
	}
	if status, _, err = c.do("POST", "/echo", []byte(`{}`)); err != nil || status != 201 {
		t.Fatalf("after close: %d %v", status, err)
	}
	if c.bytesOut == 0 || c.bytesIn < int64(len(big)) {
		t.Errorf("byte counters: out %d in %d", c.bytesOut, c.bytesIn)
	}
}
