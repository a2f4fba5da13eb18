package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pax"
	"pax/internal/pmem"
	"pax/internal/wire"
)

// This file tests the TCP front door's syscall batching: responses are
// written per burst and requests dispatched per read, but a ready response
// is never held behind a later one, order is kept, and a connection still
// stops reading at maxInflight outstanding requests.

// serveRaw serves b over TCP and dials one raw connection to it. Cleanups
// close the connection and shut the server down.
func serveRaw(t *testing.T, b Backend) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv := NewServer(b)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return conn, bufio.NewReader(conn)
}

// frontDoorEngine is an engine served over one raw connection. Cleanups run
// the server down before closing the engine and its pool.
func frontDoorEngine(t *testing.T, cfg Config) (*pax.Pool, *Engine, net.Conn, *bufio.Reader) {
	t.Helper()
	pool, eng := newTestEngine(t, "", cfg)
	t.Cleanup(func() { pool.Close() })
	t.Cleanup(func() { eng.Close() })
	conn, br := serveRaw(t, eng)
	return pool, eng, conn, br
}

// holdSyncs blocks every media sync of pool until release is called —
// a commit held back for as long as a test needs. Its cleanup releases, and
// runs before any cleanup registered earlier.
func holdSyncs(t *testing.T, pool *pax.Pool) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	device(pool).SetFaultFn(func(op pmem.FaultOp) error {
		if op == pmem.FaultFileSync {
			<-gate
		}
		return nil
	})
	t.Cleanup(release)
	return release
}

// frames renders requests as one byte stream, as a pipelining client sends
// them.
func frames(t *testing.T, reqs ...wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := wire.WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// rawFrame frames an arbitrary payload, such as one with an unknown opcode
// that WriteRequest refuses to encode.
func rawFrame(payload ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func readResp(t *testing.T, conn net.Conn, br *bufio.Reader, within time.Duration) wire.Response {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(within))
	resp, err := wire.ReadResponse(br)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp
}

func get(k string) wire.Request { return wire.Request{Op: wire.OpGet, Key: []byte(k)} }

func put(k, v string) wire.Request {
	return wire.Request{Op: wire.OpPut, Key: []byte(k), Value: []byte(v)}
}

// A GET pipelined ahead of a durable PUT whose commit is held back must be
// answered while the commit is still held: the writer flushes what is
// resolved before it waits on an unresolved response.
func TestFrontDoorFlushesBeforeBlockingOnCommit(t *testing.T) {
	pool, eng, conn, br := frontDoorEngine(t, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if _, err := eng.Put([]byte("a"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	release := holdSyncs(t, pool)
	if _, err := conn.Write(frames(t, get("a"), put("b", "vb"))); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK || string(r.Body) != "va" {
		t.Fatalf("GET a = %d %q, want OK va", r.Status, r.Body)
	}
	release()
	if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK || wire.DecodeEpoch(r.Body) == 0 {
		t.Fatalf("PUT b = %d %q, want OK with an epoch", r.Status, r.Body)
	}
}

// A partial frame must not hold back responses to requests already
// dispatched: the reader hands its batch over before a read that may block.
func TestFrontDoorPartialFrameDoesNotDelayResponses(t *testing.T) {
	_, eng, conn, br := frontDoorEngine(t, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if _, err := eng.Put([]byte("a"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	second := frames(t, put("b", "vb"))
	half := len(second) / 2
	if _, err := conn.Write(append(frames(t, get("a")), second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK || string(r.Body) != "va" {
		t.Fatalf("GET a = %d %q, want OK va", r.Status, r.Body)
	}
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK {
		t.Fatalf("PUT b = %d %q, want OK", r.Status, r.Body)
	}
}

// One burst mixing GETs, durable PUTs, PUTs refused by backpressure and an
// unknown opcode is answered in request order. The unknown opcode is a
// protocol error that ends the connection, but only after every request
// read ahead of it has been answered.
func TestFrontDoorMixedBurstKeepsOrder(t *testing.T) {
	// With commits held, the sealer holds at most two PUTs (one applied and
	// sealed, the next waiting for its snapshot point) and the queue one
	// more, so at least the last two PUTs are refused with StatusBusy.
	pool, eng, conn, br := frontDoorEngine(t, Config{
		MaxBatch: 1, MaxDelay: time.Millisecond, QueueDepth: 1, EnqueueTimeout: 20 * time.Millisecond,
	})
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, err := eng.Put([]byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
	release := holdSyncs(t, pool)
	burst := frames(t, get("a"), put("x1", "1"), put("x2", "2"), put("x3", "3"), put("x4", "4"),
		get("b"), put("x5", "5"), get("c"))
	burst = append(burst, rawFrame(0x7f)...)
	burst = append(burst, frames(t, get("d"))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The first GET is resolved ahead of the held commit.
	if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK || string(r.Body) != "va" {
		t.Fatalf("response 0 (GET a) = %d %q", r.Status, r.Body)
	}
	release()
	busy := 0
	for i, want := range []string{"PUT", "PUT", "PUT", "PUT", "GET b", "PUT", "GET c"} {
		r := readResp(t, conn, br, 5*time.Second)
		if want == "PUT" {
			if r.Status == wire.StatusBusy {
				busy++
			} else if r.Status != wire.StatusOK || wire.DecodeEpoch(r.Body) == 0 {
				t.Fatalf("response %d (PUT) = %d %q, want OK or busy", i+1, r.Status, r.Body)
			}
		} else if r.Status != wire.StatusOK || string(r.Body) != "v"+want[len(want)-1:] {
			t.Fatalf("response %d (%s) = %d %q", i+1, want, r.Status, r.Body)
		}
	}
	if busy < 2 {
		t.Fatalf("%d PUTs refused by backpressure, want at least 2", busy)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r, err := wire.ReadResponse(br); err == nil {
		t.Fatalf("answer %d %q after the unknown opcode, want the connection closed", r.Status, r.Body)
	}
}

// heldBackend answers every request only once gate closes, counting begins.
type heldBackend struct {
	begun atomic.Int64
	gate  chan struct{}
	front frontDoorStats
}

func (b *heldBackend) frontDoor() *frontDoorStats { return &b.front }

func (b *heldBackend) begin(req *request) error {
	b.begun.Add(1)
	go func() {
		<-b.gate
		req.finish(result{epoch: 7})
	}()
	return nil
}

// A connection stops reading at maxInflight outstanding requests — counted
// in requests, however they were batched — and resumes as they are answered.
func TestFrontDoorStopsReadingAtMaxInflight(t *testing.T) {
	b := &heldBackend{gate: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(b.gate) }) }
	conn, br := serveRaw(t, b)
	t.Cleanup(release) // runs before serveRaw's shutdown

	const sent = maxInflight + 44
	reqs := make([]wire.Request, sent)
	for i := range reqs {
		reqs[i] = put(fmt.Sprintf("k%d", i), "v")
	}
	burst := frames(t, reqs...)
	go func() { _, _ = conn.Write(burst) }() // may block once the server stops reading
	deadline := time.Now().Add(5 * time.Second)
	for b.begun.Load() < maxInflight {
		if time.Now().After(deadline) {
			t.Fatalf("begun %d requests, want %d", b.begun.Load(), maxInflight)
		}
		time.Sleep(time.Millisecond)
	}
	// Give an unbounded reader time to overrun the bound.
	time.Sleep(50 * time.Millisecond)
	if n := b.begun.Load(); n != maxInflight {
		t.Fatalf("begun %d requests with none answered, want the bound %d", n, maxInflight)
	}
	release()
	for i := 0; i < sent; i++ {
		if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK || wire.DecodeEpoch(r.Body) != 7 {
			t.Fatalf("response %d = %d %q", i, r.Status, r.Body)
		}
	}
	if n := b.begun.Load(); n != sent {
		t.Fatalf("begun %d requests, want %d", n, sent)
	}
}

// The front-door counters show the batching in STATS: a burst of pipelined
// GETs read at once is dispatched and written in fewer batches and writes
// than it has responses.
func TestFrontDoorCountersInStats(t *testing.T) {
	s := newSharded(t, filepath.Join(t.TempDir(), "kv.pool"), 2, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	t.Cleanup(func() { s.Close() })
	if _, err := s.Put([]byte("a"), []byte("va")); err != nil {
		t.Fatal(err)
	}
	conn, br := serveRaw(t, s)
	const burst = 64
	reqs := make([]wire.Request, burst)
	for i := range reqs {
		reqs[i] = get("a")
	}
	if _, err := conn.Write(frames(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if r := readResp(t, conn, br, 5*time.Second); r.Status != wire.StatusOK {
			t.Fatalf("GET %d = %d %q", i, r.Status, r.Body)
		}
	}
	if _, err := conn.Write(frames(t, wire.Request{Op: wire.OpStats})); err != nil {
		t.Fatal(err)
	}
	text := string(readResp(t, conn, br, 5*time.Second).Body)
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			m[name] = v
		}
	}
	// STATS is rendered before its own response is written.
	if got := m["paxserve_wire_responses"]; got != burst {
		t.Fatalf("paxserve_wire_responses = %v, want %d\n%s", got, burst, text)
	}
	for _, name := range []string{"paxserve_wire_flushes", "paxserve_wire_dispatch_batches"} {
		if got := m[name]; got < 1 || got >= burst {
			t.Fatalf("%s = %v, want in [1, %d)", name, got, burst)
		}
	}
}
