package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, made by this
// benchmark. Spans of one request share req; parent links a span to the
// span that caused it (0 for a root).
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	id, parent uint64
	req        uint64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans in memory and writes them out when the run ends. On
// the TCP phases it alternates traced and untraced windows, so one run
// measures both the traced latency and the untraced latency it is compared
// against (trace.overhead_frac).
type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	flag atomic.Bool

	mu    sync.Mutex
	spans []span

	stop chan struct{}
	done chan struct{}
}

// traceWindow is the length of each traced and untraced window.
const traceWindow = 250 * time.Millisecond

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.flag.Load() }

// alternate starts flipping tracing on and off every traceWindow until
// stopAlternating.
func (t *tracer) alternate() {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(traceWindow)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				t.flag.Store(false)
				return
			case <-tick.C:
				t.flag.Store(!t.flag.Load())
			}
		}
	}()
}

func (t *tracer) stopAlternating() {
	close(t.stop)
	<-t.done
}

func (t *tracer) span(name string, start, end time.Time, parent, req uint64) span {
	return span{
		name:   name,
		start:  start.Sub(t.t0).Nanoseconds(),
		end:    end.Sub(t.t0).Nanoseconds(),
		id:     t.ids.Add(1),
		parent: parent,
		req:    req,
	}
}

// add keeps spans made outside a caller's recorder (the probes).
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// timed runs fn inside a span named name and keeps the span.
func (t *tracer) timed(name string, parent uint64, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(t.span(name, start, time.Now(), parent, 0))
	return err
}

// durations returns the durations of the kept spans named name, in ns.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every kept span named name, its duration minus
// the part of its interval that its child spans cover.
func (t *tracer) selfTimes(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []int64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur()-covered(s, children[s.id]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write dumps every kept span as CSV: name,start_ns,end_ns,id,parent,req.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,id,parent,req")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.id, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
