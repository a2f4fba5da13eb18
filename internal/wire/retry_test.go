package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// scriptServer answers every request on conn via reply, which receives the
// 0-based request index. It stops on the first transport error.
func scriptServer(conn net.Conn, reply func(i int, req Request) Response) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for i := 0; ; i++ {
		req, err := ReadRequest(br)
		if err != nil {
			return
		}
		if err := WriteResponse(bw, reply(i, req)); err != nil || bw.Flush() != nil {
			return
		}
	}
}

func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

func TestServerErrorBusyMatching(t *testing.T) {
	busy := &ServerError{Status: StatusBusy, Msg: "queue full"}
	if !errors.Is(busy, ErrServerBusy) {
		t.Fatal("StatusBusy ServerError must match ErrServerBusy")
	}
	fatal := &ServerError{Status: StatusError, Msg: "sealed"}
	if errors.Is(fatal, ErrServerBusy) {
		t.Fatal("StatusError ServerError must not match ErrServerBusy")
	}
}

func TestRetryClientRetriesBusy(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go scriptServer(srvConn, func(i int, req Request) Response {
		if i < 2 {
			return Response{Status: StatusBusy, Body: []byte("queue full")}
		}
		return Response{Status: StatusOK, Body: EpochBody(9)}
	})
	rc := NewRetryClient(NewClient(cliConn), fastPolicy(), nil)
	defer rc.Close()

	ep, err := rc.Put([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatalf("put through busy spell: %v", err)
	}
	if ep != 9 {
		t.Fatalf("epoch = %d, want 9", ep)
	}
}

func TestRetryClientExhaustsBusyBudget(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	var served atomic.Int64
	go scriptServer(srvConn, func(i int, req Request) Response {
		served.Add(1)
		return Response{Status: StatusBusy, Body: []byte("queue full")}
	})
	rc := NewRetryClient(NewClient(cliConn), fastPolicy(), nil)
	defer rc.Close()

	_, err := rc.Put([]byte("k"), []byte("v"))
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy after exhausted budget, got %v", err)
	}
	if got := served.Load(); got != 4 {
		t.Fatalf("server saw %d attempts, want MaxAttempts=4", got)
	}
}

func TestRetryClientFailsFastOnStatusError(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	var served atomic.Int64
	go scriptServer(srvConn, func(i int, req Request) Response {
		served.Add(1)
		return Response{Status: StatusError, Body: []byte("engine sealed by durability failure")}
	})
	rc := NewRetryClient(NewClient(cliConn), fastPolicy(), nil)
	defer rc.Close()

	_, err := rc.Put([]byte("k"), []byte("v"))
	var se *ServerError
	if !errors.As(err, &se) || se.Status != StatusError {
		t.Fatalf("want StatusError ServerError, got %v", err)
	}
	if errors.Is(err, ErrServerBusy) {
		t.Fatalf("sealed error must not look retryable: %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no retry on StatusError)", got)
	}
}

func TestRetryClientReconnects(t *testing.T) {
	// First connection: the server hangs up after reading one request —
	// a mid-flight transport failure.
	cliConn, srvConn := net.Pipe()
	go func() {
		br := bufio.NewReader(srvConn)
		_, _ = ReadRequest(br)
		_ = srvConn.Close()
	}()

	// The dialer hands out a fresh connection to a healthy server.
	var dials atomic.Int64
	dial := func(addr string) (*Client, error) {
		dials.Add(1)
		c2, s2 := net.Pipe()
		go scriptServer(s2, func(i int, req Request) Response {
			return Response{Status: StatusOK, Body: req.Key}
		})
		return NewClient(c2), nil
	}
	rc := NewRetryClient(NewClient(cliConn), fastPolicy(), dial)
	defer rc.Close()

	v, ok, err := rc.Get([]byte("k"))
	if err != nil || !ok || !bytes.Equal(v, []byte("k")) {
		t.Fatalf("get after reconnect: v=%q ok=%v err=%v", v, ok, err)
	}
	if dials.Load() != 1 {
		t.Fatalf("dialed %d times, want 1", dials.Load())
	}
}

func TestRetryClientClosed(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go scriptServer(srvConn, func(i int, req Request) Response {
		return Response{Status: StatusOK, Body: req.Key}
	})
	rc := NewRetryClient(NewClient(cliConn), fastPolicy(), nil)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Get([]byte("k")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on closed retry client: %v", err)
	}
}
