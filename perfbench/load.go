package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pax/internal/wire"
)

const (
	keyLen   = 10
	valueLen = 64
)

// keyName is key i of the keyspace: fixed width, so every value has the
// same 10 + 64 user bytes.
func keyName(i int) []byte { return []byte(fmt.Sprintf("pb%08d", i)) }

// mix is splitmix64, used to derive a value's filler from (key, version).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// encodeValue writes key i's value at version v into buf: the version, the
// key itself, and filler derived from both, so a value served for the
// wrong key, a torn value or a stale version is always detectable.
func encodeValue(buf []byte, i int, v uint64) {
	binary.BigEndian.PutUint64(buf[0:8], v)
	copy(buf[8:8+keyLen], keyName(i))
	h := mix(uint64(i)<<32 ^ v)
	for j := 8 + keyLen; j < valueLen; j++ {
		if (j-8-keyLen)%8 == 0 {
			h = mix(h)
		}
		buf[j] = byte(h >> (8 * ((j - 8 - keyLen) % 8)))
	}
}

// decodeValue returns the version val encodes for key i, and false when
// val is not a value this benchmark ever wrote for key i.
func decodeValue(val []byte, i int) (uint64, bool) {
	if len(val) != valueLen {
		return 0, false
	}
	v := binary.BigEndian.Uint64(val[0:8])
	var want [valueLen]byte
	encodeValue(want[:], i, v)
	return v, bytes.Equal(val, want[:])
}

// keyspace tracks, per key, the versions issued and acked. Callers take a
// key exclusively while a PUT to it is in flight, so versions reach the
// server in order and the last acked version is the one that must be
// stored.
type keyspace struct {
	issued    []atomic.Uint64
	acked     []atomic.Uint64
	busy      []atomic.Bool
	uncertain []atomic.Bool // a PUT failed: its version may or may not be stored
}

func newKeyspace(n int) *keyspace {
	return &keyspace{
		issued:    make([]atomic.Uint64, n),
		acked:     make([]atomic.Uint64, n),
		busy:      make([]atomic.Bool, n),
		uncertain: make([]atomic.Bool, n),
	}
}

// failures counts every failed, refused, wrong-valued or lost operation.
type failures struct {
	busy, errs, wrong, notFound, lost atomic.Int64
	// first holds a description of the first failure, for the report.
	mu    sync.Mutex
	first string
}

func (f *failures) note(counter *atomic.Int64, format string, args ...any) {
	counter.Add(1)
	f.mu.Lock()
	if f.first == "" {
		f.first = fmt.Sprintf(format, args...)
	}
	f.mu.Unlock()
}

func (f *failures) total() int64 {
	return f.busy.Load() + f.errs.Load() + f.wrong.Load() + f.notFound.Load() + f.lost.Load()
}

func (f *failures) opError(err error, op string, i int) {
	if errors.Is(err, wire.ErrServerBusy) {
		f.note(&f.busy, "%s %s: %v", op, keyName(i), err)
		return
	}
	f.note(&f.errs, "%s %s: %v", op, keyName(i), err)
}

// checkGet validates a GET of key i that was sent when the key's acked
// version was lo. Any version from lo up to the latest issued is legal: a
// PUT in flight may already be applied and visible.
func (ks *keyspace) checkGet(f *failures, i int, lo uint64, val []byte, ok bool) {
	if !ok {
		if ks.acked[i].Load() > 0 || lo > 0 {
			f.note(&f.notFound, "GET %s: not found, acked version %d", keyName(i), lo)
		}
		return
	}
	v, good := decodeValue(val, i)
	hi := ks.issued[i].Load()
	if !good || v > hi || (v < lo && !ks.uncertain[i].Load()) {
		f.note(&f.wrong, "GET %s: got version %d (valid=%v), want %d..%d", keyName(i), v, good, lo, hi)
	}
}

// verifyKey checks key i after a restart, with nothing in flight: the
// stored version must be exactly the last acked one.
func (ks *keyspace) verifyKey(f *failures, i int, val []byte, ok bool) {
	want := ks.acked[i].Load()
	if want == 0 {
		return
	}
	if !ok {
		f.note(&f.lost, "lost acked write: %s version %d not found after restart", keyName(i), want)
		return
	}
	v, good := decodeValue(val, i)
	if !good {
		f.note(&f.wrong, "after restart %s holds a value this benchmark never wrote", keyName(i))
		return
	}
	if v != want && !(ks.uncertain[i].Load() && v <= ks.issued[i].Load()) {
		f.note(&f.lost, "lost acked write: %s holds version %d after restart, acked %d", keyName(i), v, want)
	}
}

// sample is one completed op: when it completed (ns since its phase
// started), how long it took, and whether it ran traced.
type sample struct {
	done, lat int64
	traced    bool
}

// recorder collects one caller's ops. Callers own their recorder, so
// recording takes no lock.
type recorder struct {
	samples []sample
	spans   []span
	errs    int
	pick    picker // this caller's key stream, made on first use
}

// phase is one closed-loop measured phase: each caller sends its next
// request only once the previous reply arrived.
type phase struct {
	ks       *keyspace
	f        *failures
	deadline time.Time
	start    time.Time
	tracer   *tracer // nil when not tracing
	// traceAll records every op as a span (the in-process probes); on TCP
	// phases tracing alternates by window.
	traceAll bool
	putName  string
	getName  string
	reqID    atomic.Uint64
}

func newPhase(ks *keyspace, f *failures, tr *tracer, deadline time.Time) *phase {
	return &phase{ks: ks, f: f, tracer: tr, start: time.Now(), deadline: deadline, putName: "wire.put", getName: "wire.get"}
}

func (p *phase) tracing() bool { return p.traceAll || p.tracer.on() }

// picker draws key indices for one caller.
type picker func() int

func uniformPicker(r *rand.Rand, n int) picker {
	return func() int { return r.Intn(n) }
}

// zipfPicker draws ranks from a zipf(s) distribution and maps them through
// perm, so the hot keys are scattered over the keyspace (and the slots).
func zipfPicker(r *rand.Rand, s float64, perm []int) picker {
	z := rand.NewZipf(r, s, 1, uint64(len(perm)-1))
	return func() int { return perm[z.Uint64()] }
}

// acquire draws keys until it finds one with no PUT in flight.
func (ks *keyspace) acquire(pick picker) int {
	for {
		i := pick()
		if ks.busy[i].CompareAndSwap(false, true) {
			return i
		}
	}
}

// put issues one PUT of the next version of key i and records it.
func (p *phase) put(c kv, rec *recorder, i int, val []byte) {
	ks := p.ks
	v := ks.issued[i].Add(1)
	encodeValue(val, i, v)
	tracing := p.tracing()
	t0 := time.Now()
	_, err := c.Put(keyName(i), val)
	t1 := time.Now()
	p.finish(rec, p.putName, t0, t1, tracing)
	if err != nil {
		rec.errs++
		ks.uncertain[i].Store(true)
		p.f.opError(err, "PUT", i)
	} else {
		ks.acked[i].Store(v)
	}
	ks.busy[i].Store(false)
}

// get issues one GET of key i and checks the reply.
func (p *phase) get(c kv, rec *recorder, i int) {
	lo := p.ks.acked[i].Load()
	tracing := p.tracing()
	t0 := time.Now()
	val, ok, err := c.Get(keyName(i))
	t1 := time.Now()
	p.finish(rec, p.getName, t0, t1, tracing)
	if err != nil {
		rec.errs++
		p.f.opError(err, "GET", i)
		return
	}
	p.ks.checkGet(p.f, i, lo, val, ok)
}

func (p *phase) finish(rec *recorder, name string, t0, t1 time.Time, tracing bool) {
	rec.samples = append(rec.samples, sample{done: t1.Sub(p.start).Nanoseconds(), lat: t1.Sub(t0).Nanoseconds(), traced: tracing})
	if tracing && p.tracer != nil {
		rec.spans = append(rec.spans, p.tracer.span(name, t0, t1, 0, p.reqID.Add(1)))
	}
}

// opResult is the merged ops of one or more lanes.
type opResult struct {
	samples []sample
	spans   []span
	errs    int
}

func (r opResult) ops() int { return len(r.samples) }

// lat returns the latencies of the traced or the untraced ops, in ns.
func (r opResult) lat(traced bool) []int64 {
	var out []int64
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, s.lat)
		}
	}
	return out
}

func merge(recs []*recorder) opResult {
	var r opResult
	for _, rec := range recs {
		r.samples = append(r.samples, rec.samples...)
		r.spans = append(r.spans, rec.spans...)
		r.errs += rec.errs
	}
	return r
}

// rngFor derives caller k of connection conn's private random stream from
// the run seed, so the same seed issues the same request stream per caller.
func rngFor(seed int64, conn, k int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed)<<16 ^ uint64(conn)<<8 ^ uint64(k)))))
}

// combine merges lanes' results.
func combine(rs ...opResult) opResult {
	var out opResult
	for _, r := range rs {
		out.samples = append(out.samples, r.samples...)
		out.spans = append(out.spans, r.spans...)
		out.errs += r.errs
	}
	return out
}
