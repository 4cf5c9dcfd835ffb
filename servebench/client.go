package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"wdcproducts/internal/serve"
)

// daemon is an in-process serve.Server behind a loopback HTTP listener.
type daemon struct {
	s    *serve.Server
	hs   *http.Server
	done chan error
	base string
}

// listen serves s on a fresh loopback port.
func listen(s *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{s: s, hs: &http.Server{Handler: s.Handler()}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener and waits for its serve loop to return. It
// does not stop the daemon's ingest pipeline; callers that started it
// call Shutdown as well.
func (d *daemon) close() error {
	if err := d.hs.Close(); err != nil {
		return err
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// shutdown closes the listener, then drains and stops the daemon.
func (d *daemon) shutdown() error {
	if err := d.close(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.s.Shutdown(ctx)
}

// client is the benchmark's one closed-loop client: one keep-alive
// connection, one request in flight at a time.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	reqs *int64 // operation numbers, shared across the run's clients
}

func newClient(base string, tr *tracer, reqs *int64) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr, reqs: reqs}
}

// reply is one answered request. Latency runs from just before the
// request is written until its body has been read in full; decoding the
// body is left outside it.
type reply struct {
	status  int
	body    []byte
	latency time.Duration
	req     int64
}

// do sends one request and reads the whole response, recording a span
// named name under parent.
func (c *client) do(name, method, path string, body []byte, parent int) (reply, error) {
	*c.reqs++
	r := reply{req: *c.reqs}
	sp := c.tr.begin(name, parent, r.req)
	defer c.tr.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return r, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	r.latency = time.Since(start)
	resp.Body.Close()
	r.status = resp.StatusCode
	return r, err
}

// match sends GET /v1/match for one offer.
func (c *client) match(name string, id int64, parent int) (reply, error) {
	return c.do(name, http.MethodGet, "/v1/match?id="+strconv.FormatInt(id, 10), nil, parent)
}

// closeIdle drops the kept-alive connection.
func (c *client) closeIdle() { c.hc.CloseIdleConnections() }
