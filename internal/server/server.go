package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"pax/internal/stats"
	"pax/internal/wire"
)

// Backend is what the TCP front end serves: the single-pool Engine or the
// ShardedEngine router. begin enqueues a request without waiting; on nil
// the backend owns the request and delivers exactly one result on req.done.
type Backend interface {
	begin(req *request) error
	// frontDoor returns the counters Server books this backend's
	// connections against, exported in its metrics as paxserve_wire_*.
	frontDoor() *frontDoorStats
}

// Server is the TCP front end: it speaks the wire protocol and forwards
// requests to a Backend. Each connection gets a reader goroutine that
// enqueues requests on the backend in wire order and a writer goroutine
// that sends the responses back in that same order — so pipelined requests
// are in flight concurrently and even a single connection's writes land in
// shared group commits.
type Server struct {
	backend Backend
	// DefaultAckPolicy is what a request without an explicit ack-policy flag
	// gets — every pre-flags client, and every new client sending
	// FlagAckDefault. The zero value is AckDurable, the protocol's original
	// contract; paxserve -ack-policy overrides it.
	DefaultAckPolicy AckPolicy
	// WriteTimeout bounds each burst of response writes, from its first
	// response to the flush that ends it (default 30s).
	WriteTimeout time.Duration
	// Logf, when set, receives connection-level errors (default: drop them;
	// a malformed client is not a server event worth crashing over).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// NewServer wraps a backend (an Engine or a ShardedEngine).
func NewServer(b Backend) *Server {
	return &Server{backend: b, WriteTimeout: 30 * time.Second, conns: make(map[net.Conn]struct{})}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections on lis until Shutdown. It returns nil after a
// clean shutdown and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.listener = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.shutdown
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown stops accepting, closes every live connection, and waits for the
// handlers to drain. It does not close the engine — the daemon does, after
// the last response is on the wire.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.shutdown = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// maxInflight bounds how many pipelined requests one connection may have
// dispatched and not yet answered; past it the reader stops reading and TCP
// pushes back.
const maxInflight = 256

// frontDoorStats counts the TCP front end's syscall batching, summed over
// every connection a backend serves: responses per flush is how many answers
// one write(2) carries, responses per dispatch batch how many requests one
// read(2) handed the writer.
type frontDoorStats struct {
	responses       stats.Counter // responses framed onto a connection
	flushes         stats.Counter // writes of framed responses to a socket
	dispatchBatches stats.Counter // request batches handed to a writer
}

func (f *frontDoorStats) register(reg *stats.Registry) {
	reg.RegisterCounter("paxserve_wire_responses", &f.responses)
	reg.RegisterCounter("paxserve_wire_flushes", &f.flushes)
	reg.RegisterCounter("paxserve_wire_dispatch_batches", &f.dispatchBatches)
}

// countedWriter counts the writes that reach the socket.
type countedWriter struct {
	w io.Writer
	n *stats.Counter
}

func (c countedWriter) Write(p []byte) (int, error) {
	c.n.Inc()
	return c.w.Write(p)
}

// pending is one dispatched request awaiting its turn on the wire: a begun
// backend request answered on req.done, or (req nil) a response fixed at
// dispatch — an unknown opcode or an enqueue failure.
type pending struct {
	req  *request
	op   byte
	resp wire.Response
}

// handle serves one connection. Syscalls are paid per burst, not per
// request: the reader dispatches every complete frame its last read(2)
// buffered and hands the writer the whole batch at once, and the writer
// frames every resolved response into its buffer and flushes only when it
// runs out of work or is about to wait on an unresolved one — so a ready
// response never waits behind a later one, and no timer is involved.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fd := s.backend.frontDoor()
	br := bufio.NewReader(conn)

	// Responses must leave in request order, but a response is not ready
	// until its group commit — so the reader enqueues each request on the
	// engine immediately (one goroutine, so the engine applies them in wire
	// order) and the writer answers batches in order. Between the two, a
	// connection's pipelined writes fill group commits instead of paying one
	// commit each. slots holds one token per outstanding request; every
	// batch carries at least one, so batches never holds more than
	// maxInflight and the reader's sends to it never block.
	batches := make(chan []pending, maxInflight)
	slots := make(chan struct{}, maxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeResponses(conn, fd, batches, slots)
	}()
	var batch []pending
	handOff := func() {
		batches <- batch
		batch = nil
		fd.dispatchBatches.Inc()
	}
	for {
		req, err := wire.ReadRequest(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("paxserve: %s: read: %v", conn.RemoteAddr(), err)
			}
			break
		}
		select {
		case slots <- struct{}{}:
		default:
			// At the bound: the writer must answer what is dispatched
			// before a slot frees, so hand it over first.
			if len(batch) > 0 {
				handOff()
			}
			slots <- struct{}{}
		}
		batch = append(batch, s.dispatch(req))
		if !wire.FrameReady(br) {
			// The next read may block on the socket: what is dispatched
			// must not wait for it.
			handOff()
		}
	}
	if len(batch) > 0 {
		handOff()
	}
	close(batches)
	<-writerDone
}

// writeResponses is a connection's writer: it answers batches in order,
// releasing one slot per response. After a write error it keeps consuming —
// every begun request still owes exactly one result — but writes nothing.
func (s *Server) writeResponses(conn net.Conn, fd *frontDoorStats, batches <-chan []pending, slots <-chan struct{}) {
	bw := bufio.NewWriter(countedWriter{conn, &fd.flushes})
	broken := false
	fail := func(err error) {
		s.logf("paxserve: %s: write: %v", conn.RemoteAddr(), err)
		broken = true
		conn.Close() // unblock the reader
	}
	flush := func() {
		if broken || bw.Buffered() == 0 {
			return
		}
		if err := bw.Flush(); err != nil {
			fail(err)
		}
	}
	for {
		var batch []pending
		var ok bool
		select {
		case batch, ok = <-batches:
		default:
			flush() // nothing more to answer yet: send what is resolved
			batch, ok = <-batches
		}
		if !ok {
			flush()
			return
		}
		for _, p := range batch {
			resp := p.resp
			if p.req != nil {
				var res result
				select {
				case res = <-p.req.done:
				default:
					flush() // about to wait on a commit: send what is resolved
					res = <-p.req.done
				}
				p.req.release()
				resp = renderResponse(p.op, res)
			}
			<-slots
			if broken {
				continue
			}
			if s.WriteTimeout > 0 && bw.Buffered() == 0 {
				// One deadline per burst: nothing blocks between here and
				// the flush that ends it but the socket itself.
				_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
			}
			if err := wire.WriteResponse(bw, resp); err != nil {
				fail(err)
				continue
			}
			fd.responses.Inc()
		}
	}
}

// dispatch starts req on the backend. Enqueue failures (closed,
// backpressure) resolve immediately, and so do GETs: the engine answers them
// inline from the read index inside begin, so a pipelined GET's value is
// fixed at dispatch time — it does not serialize behind the connection's
// unacked PUTs (the response still leaves the wire in request order).
func (s *Server) dispatch(req wire.Request) pending {
	var op opKind
	switch req.Op {
	case wire.OpGet:
		op = opGet
	case wire.OpPut:
		op = opPut
	case wire.OpDelete:
		op = opDelete
	case wire.OpPersist:
		op = opPersist
	case wire.OpStats:
		op = opStats
	case wire.OpTrace:
		op = opTrace
	case wire.OpSplit:
		op = opSplit
	case wire.OpMerge:
		op = opMerge
	case wire.OpEvents:
		op = opEvents
	default:
		return pending{resp: wire.Response{Status: wire.StatusError, Body: []byte("unknown opcode " + wire.OpName(req.Op))}}
	}
	ereq := newRequest(op, req.Key, req.Value)
	if op == opSplit || op == opMerge {
		// SplitAuto/MergeAuto (all ones) means "server picks"; the engine
		// side uses -1.
		if req.Shard == wire.SplitAuto {
			ereq.shard = -1
		} else {
			ereq.shard = int(req.Shard)
		}
	}
	switch req.Flags {
	case wire.FlagAckDefault:
		ereq.ackOnApply = s.DefaultAckPolicy == AckApply && (op == opPut || op == opDelete || op == opPersist)
	case wire.FlagAckDurable:
		ereq.ackOnApply = false
	case wire.FlagAckApply:
		ereq.ackOnApply = true
	}
	if err := s.backend.begin(ereq); err != nil {
		ereq.release()
		return pending{resp: errResponse(err)}
	}
	return pending{req: ereq, op: req.Op}
}

func renderResponse(op byte, res result) wire.Response {
	if res.err != nil {
		return errResponse(res.err)
	}
	switch op {
	case wire.OpGet:
		if !res.found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK, Body: res.value}
	case wire.OpPut, wire.OpPersist:
		return wire.Response{Status: wire.StatusOK, Body: wire.EpochBody(res.epoch)}
	case wire.OpDelete:
		st := wire.StatusOK
		if !res.found {
			st = wire.StatusNotFound
		}
		return wire.Response{Status: st, Body: wire.EpochBody(res.epoch)}
	case wire.OpStats:
		return wire.Response{Status: wire.StatusOK, Body: []byte(res.text)}
	case wire.OpTrace, wire.OpEvents, wire.OpSplit, wire.OpMerge:
		return wire.Response{Status: wire.StatusOK, Body: res.value}
	}
	return wire.Response{Status: wire.StatusError, Body: []byte("unknown opcode " + wire.OpName(op))}
}

// errResponse maps engine errors onto wire statuses: backpressure (ErrBusy)
// becomes StatusBusy so clients retry by status byte; everything else —
// including a sealed shard's durability error — is StatusError, which a
// client must not blindly retry.
func errResponse(err error) wire.Response {
	status := wire.StatusError
	if errors.Is(err, ErrBusy) {
		status = wire.StatusBusy
	}
	return wire.Response{Status: status, Body: []byte(err.Error())}
}
