package main

import (
	"io"
	"net"
	"net/http"
	"sync/atomic"
)

// serveLoopback serves h on a free 127.0.0.1 port. stop closes the
// listener and every connection, and returns once Serve has.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() // listener already owned by Serve; nothing to report
		<-done
	}, nil
}

// countingTransport counts response body bytes of the client the harness
// hands to the fetch functions: the bytes a pinger would pull off the wire.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func newCountingClient() (*http.Client, *countingTransport) {
	ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
	return &http.Client{Transport: ct}, ct
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
