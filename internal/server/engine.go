// Package server is the paxserve subsystem: a single-writer commit engine
// that multiplexes many concurrent client goroutines onto one PAX pool, plus
// a TCP front end speaking the wire protocol.
//
// The paper's programming model is single-threaded: no goroutine may mutate
// the pool while Persist runs (§3.5). Instead of pushing that burden onto
// every caller, the engine funnels all operations through one writer
// goroutine and turns Persist into a *group commit*: mutations are applied
// in arrival order, and one snapshot per batch — bounded by MaxBatch and
// MaxDelay — makes the whole batch durable before its callers are acked. N
// concurrent writers therefore share one snapshot's cost, the same
// amortization that makes PAX epochs (and Snapshot's msync batching) fast.
//
// Group commits run as a three-stage pipeline, the serving-path analogue of
// the paper's epoch pipelining (§6: overlap epoch N's writeback with epoch
// N+1's execution) and of NearPM's split between ordering at the host and
// ordering at the device:
//
//	sealer    — the writer goroutine: applies requests, collects a batch,
//	            seals it, and hands it to the persister. The sealer runs at
//	            host speed: it never waits for modeled media, only for the
//	            previous batch's snapshot point and — when the pipeline's
//	            run-ahead buffer is full — for the persister to drain
//	            (paxserve_pipeline_stall_ns).
//	persister — issues the snapshot for each sealed batch, in seal order.
//	            Snapshot points stay serialized (§3.5: a mutex excludes
//	            applies during the persist call), but the modeled media time
//	            is not spent here, so snapshots too run at host speed.
//	acker     — releases each epoch's ack-on-durable waiters, in epoch
//	            order, once its modeled media commit completes. The acker
//	            models the device as MaxInflightCommits commit slots, each
//	            busy for CommitLatency per epoch: commit N's media work
//	            starts at its persist or when slot N mod W frees, whichever
//	            is later — so up to W media commits overlap instead of
//	            serializing.
//
// MaxInflightCommits=1 serializes the modeled media — one commit on the
// device at a time, ack-on-durable pacing identical to the pre-pipeline
// serial engine — and is the A/B baseline the ackpipe experiment measures
// against. A failed persist of epoch N fails N's waiters, seals the engine,
// and fails every later sealed-but-unpersisted batch — an unacked in-flight
// epoch is legal to abandon (§3.4 recovery rolls it back), but it must never
// ack. Epochs persisted before N still ack: their syncs already succeeded.
//
// Reads do not take that path: §3.5 constrains mutation, not observation, so
// the writer maintains a volatile read index (readindex.go) it updates at
// apply time, and Get serves from it directly — a GET never enters the
// request queue and never waits behind a commit in flight.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pax"
	"pax/internal/blackbox"
	"pax/internal/stats"
)

// Engine errors.
var (
	// ErrClosed is returned for requests after Close (or a crash).
	ErrClosed = errors.New("server: engine closed")
	// ErrBusy is returned when the request queue stays full past the
	// enqueue timeout — the backpressure signal. The wire layer maps it to
	// StatusBusy so clients can retry it, distinct from fatal errors.
	ErrBusy = errors.New("server: request queue full")
	// ErrSealed is wrapped by every error an engine returns after a
	// durability failure sealed it fail-stop: a group commit could not
	// reach media even after retries, so the engine stops accepting work
	// rather than acking writes it cannot make durable. Previously acked
	// writes are unaffected (they synced with their own commits). Detect
	// with errors.Is(err, ErrSealed).
	ErrSealed = errors.New("server: engine sealed by durability failure")
)

// Config tunes the engine.
type Config struct {
	// MaxBatch is the most acked mutations per group commit (default 128).
	MaxBatch int
	// MaxDelay bounds how long the first mutation of a batch waits for
	// company before the commit is forced (default 1ms).
	MaxDelay time.Duration
	// QueueDepth bounds the request queue; a full queue pushes back on
	// clients (default 1024).
	QueueDepth int
	// EnqueueTimeout is how long a request waits for queue space before
	// failing with ErrBusy (default 5s).
	EnqueueTimeout time.Duration
	// CommitLatency models the real-time cost of making an epoch durable on
	// the backing medium (an msync-class sync, an Optane flush): the writer
	// blocks this long per group commit, after Persist and before acking the
	// batch. The in-memory simulator otherwise commits at host-CPU speed,
	// which hides the serialization the engine actually has on real media —
	// one commit in flight per pool. Sharded engines overlap this latency
	// across shards, which is exactly what the loadgen shard sweep measures.
	// Zero (the default) commits at simulator speed.
	CommitLatency time.Duration
	// CommitRetries is how many extra persist attempts a group commit whose
	// media sync failed gets before the engine gives up and seals
	// (default 3; negative disables retries). A fault that clears within
	// the retry budget is transient — the batch still acks, no client sees
	// it. One that does not is treated as persistent media failure.
	CommitRetries int
	// CommitRetryDelay is the wait before the first commit retry, doubling
	// per attempt (default 2ms).
	CommitRetryDelay time.Duration
	// SlowCommit is the flight-recorder pin threshold: a group commit slower
	// than this end to end (or one that failed) is copied to the pinned
	// outlier ring so it survives after the recent ring wraps (default 10ms;
	// negative disables pinning — failed commits are still pinned).
	SlowCommit time.Duration
	// TraceDepth is the flight recorder's recent-ring size in commits
	// (default 256); SlowDepth sizes the pinned outlier ring that holds
	// failed and over-threshold commits (default 64). A postmortem wants
	// deeper rings than live debugging does.
	TraceDepth int
	SlowDepth  int
	// MaxInflightCommits is the modeled media commit concurrency: how many
	// epochs' CommitLatency may overlap on the device at once (default 2).
	// While epoch N's media commit is outstanding the sealer keeps applying
	// and sealing later epochs at host speed, and up to W of their modeled
	// media commits proceed concurrently. 1 serializes the media — the
	// ack-on-durable pacing of the pre-pipeline serial engine, and the A/B
	// baseline the ackpipe experiment measures against. The window does not
	// gate the sealer: applying and snapshotting run ahead of the modeled
	// media (bounded by the pipeline's run-ahead buffer), which is what
	// keeps ack-on-apply latency at host speed under load.
	MaxInflightCommits int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 5 * time.Second
	}
	switch {
	case c.CommitRetries == 0:
		c.CommitRetries = 3
	case c.CommitRetries < 0:
		c.CommitRetries = 0
	}
	if c.CommitRetryDelay <= 0 {
		c.CommitRetryDelay = 2 * time.Millisecond
	}
	switch {
	case c.SlowCommit == 0:
		c.SlowCommit = DefaultSlowCommit
	case c.SlowCommit < 0:
		c.SlowCommit = 0
	}
	if c.TraceDepth <= 0 {
		c.TraceDepth = DefaultTraceDepth
	}
	if c.SlowDepth <= 0 {
		c.SlowDepth = DefaultSlowDepth
	}
	if c.MaxInflightCommits <= 0 {
		c.MaxInflightCommits = 2
	}
	return c
}

// AckPolicy selects when a mutation is acknowledged to its caller.
type AckPolicy uint8

const (
	// AckDurable acks a mutation only after its group commit reached media:
	// every ack means durable — the engine's original contract, and the
	// default.
	AckDurable AckPolicy = iota
	// AckApply acks a mutation as soon as it is applied and visible in the
	// read index, with durability asynchronous (NearPM's at-the-host
	// ordering split). The ack reports the open epoch the write will commit
	// in; if the engine crashes before that epoch persists, the acked write
	// rolls back. Readers were never exposed to the rollback as durable
	// state — the read index is rebuilt from the recovered pool.
	AckApply
)

type opKind byte

const (
	opGet opKind = iota
	opPut
	opDelete
	opPersist
	opStats
	opSnapshot
	opTrace
	// opSplit asks the sharded router to split a shard live (migrate.go); a
	// plain Engine has no shards and rejects it at begin.
	opSplit
	// opMerge is the inverse: drain the coldest shard and shrink the fleet
	// (merge.go). Like opSplit it only makes sense on the sharded router.
	opMerge
	// opBarrier is a queue flush: it applies as a no-op and acks at apply
	// time, so its return means every previously enqueued request has been
	// applied — without forcing a commit the way opPersist does. Migration
	// uses it as the drain fence before copying a slot.
	opBarrier
	// opEvents returns the recent structured lifecycle events (events.go).
	// Like opTrace it is answered inline, so a sealed engine still serves
	// the events that explain the seal.
	opEvents
)

type result struct {
	value []byte
	found bool
	epoch uint64
	text  string
	snap  stats.Summary
	err   error
}

type request struct {
	op         opKind
	key, value []byte
	found      bool        // Delete: key was present (carried to the ack)
	ackOnApply bool        // AckApply: finish at apply time, durability async
	shard      int         // Split: source to split; Merge: victim to drain; -1 = auto-pick
	done       chan result // buffered(1); exactly one result per request
}

// requestPool recycles request structs together with their done channels:
// a request's lifecycle is strictly get → begin → one result received →
// release, so the buffered(1) channel is always empty again at release time.
var requestPool = sync.Pool{
	New: func() any { return &request{done: make(chan result, 1)} },
}

// newRequest takes a pooled request. The caller must either fail to begin it
// (and release it) or receive exactly one result from done (and release it).
func newRequest(op opKind, key, value []byte) *request {
	r := requestPool.Get().(*request)
	r.op, r.key, r.value, r.found, r.ackOnApply, r.shard = op, key, value, false, false, 0
	return r
}

// release returns a request to the pool. Only call once the engine cannot
// touch it anymore: after its result was received, or after begin failed.
func (r *request) release() {
	r.key, r.value = nil, nil
	requestPool.Put(r)
}

// sealedBatch is one group commit handed from the sealer to the persister:
// the batch's ack-on-durable waiters, how many mutations it carries
// (ack-on-apply mutations have no waiter but still need the commit), and
// how the batch was sealed.
type sealedBatch struct {
	waiters   []*request
	mutations int
	start     time.Time
	sealNS    int64
	inflight  int // pipeline depth at seal time, this batch included

	// snapped is closed by the persister once this batch's snapshot point
	// has settled (persist issued, or the batch abandoned). The sealer
	// waits for it before applying the next batch's first mutation, so a
	// batch's mutations land in exactly its own epoch — the overlap is
	// media time only, never snapshot points — and the crash contract
	// stays exact: an unacked ack-on-durable write is never in a durable
	// epoch, so it always rolls back.
	snapped chan struct{}
}

// issuedCommit is a persisted-but-not-yet-acked epoch traveling from the
// persister to the acker: the snapshot is taken (really synced, in
// file-backed mode), but the modeled media commit has not completed. The
// acker assigns it a device slot and sleeps out CommitLatency from
// max(persisted, slot free), so the media time of successive epochs
// overlaps up to MaxInflightCommits deep.
type issuedCommit struct {
	b         *sealedBatch
	st        pax.PersistStats
	rec       CommitRecord
	issued    time.Time // persist start, for the persist-stage accounting
	persisted time.Time // persist return: ready for its device slot
}

// EngineStats are the engine's own counters (the pool's live underneath).
type EngineStats struct {
	AckedWrites  stats.Counter // mutations acked durable (at commit)
	AckedOnApply stats.Counter // mutations acked at apply time (AckApply), durability pending
	Gets         stats.Counter // reads served from the read index
	GroupCommits stats.Counter // snapshots taken by the writer loop
	BatchMax     stats.Counter // largest batch committed (gauge-as-counter)
	Rejects      stats.Counter // requests dropped by backpressure

	// Read-index counters: hits/misses for index-served GETs, and the entry
	// count rebuilt from the recovered pool at startup.
	ReadIndexHits    stats.Counter
	ReadIndexMisses  stats.Counter
	ReadIndexRebuilt stats.Counter

	// Durability-failure counters: persist attempts retried after a media
	// fault, and group commits that failed permanently (each one seals the
	// engine, so CommitFailures is effectively 0 or 1).
	CommitRetries  stats.Counter
	CommitFailures stats.Counter

	// Commit-pipeline latency histograms (wall-clock nanoseconds), one per
	// stage of a group commit: how long an enqueue waited for queue space
	// (0 on the uncontended fast path), how long the batch stayed open
	// collecting company, the persist itself (retries and modeled media
	// latency included), the ack fan-out, and the whole batch end to end.
	EnqueueWaitNS stats.LatencyHistogram
	BatchSealNS   stats.LatencyHistogram
	PersistNS     stats.LatencyHistogram
	AckNS         stats.LatencyHistogram
	CommitNS      stats.LatencyHistogram

	// PipelineStallNS is how long the sealer waited to hand a sealed batch
	// to the pipeline — 0 when the run-ahead buffer had room, so the count
	// matches seals and the p99 reflects how often the media backlog
	// actually pushed back on applying.
	PipelineStallNS stats.LatencyHistogram

	// DeltaBytes is bytes persisted per group commit (a size histogram on
	// the latency machinery): the delta record in epoch-log mode, the full
	// image otherwise. Its mean over the pool size is the engine's write
	// amplification, exported as paxserve_epoch_amplification.
	DeltaBytes stats.LatencyHistogram

	// GET service time, split by read-index hit/miss.
	GetHitNS  stats.LatencyHistogram
	GetMissNS stats.LatencyHistogram
}

// Engine is the concurrent serving engine over one pool. All methods are
// safe for concurrent use; internally a single writer goroutine owns the
// pool, so the §3.5 single-mutator rule holds by construction. Reads are
// served off the writer loop from the volatile read index (see readindex.go
// for the consistency contract).
type Engine struct {
	pool *pax.Pool
	kv   *pax.Map
	cfg  Config
	idx  *readIndex

	reqs chan *request
	stop chan struct{} // closed by Crash/seal: abandon uncommitted work

	// Pipeline plumbing. poolMu is the §3.5 guard under concurrency: the
	// sealer holds it per apply, the persister per persist attempt, so no
	// mutation ever overlaps a snapshot point. sealedq carries sealed
	// batches sealer→persister and ackq persisted epochs persister→acker.
	// ackq's capacity is the pipeline's run-ahead buffer: how many
	// snapshotted epochs may await their modeled media completion before
	// the sealer is pushed back on (paxserve_pipeline_stall_ns) — the
	// memory bound on how far applying runs ahead of durability.
	poolMu  sync.Mutex
	sealedq chan *sealedBatch
	ackq    chan *issuedCommit
	depth   atomic.Int64 // epochs persisting or awaiting modeled media: the inflight-commits gauge

	// lastSealed is the batch whose snapshot point the sealer must wait out
	// before opening the next batch. Sealer-goroutine-only; no locking.
	lastSealed *sealedBatch

	// mu guards closed and sealErr. It is never held across a blocking
	// enqueue — begin registers with inflight under the read lock and
	// releases before waiting for queue space — so Close/Crash acquire the
	// write lock immediately even when the queue is full.
	mu       sync.RWMutex
	closed   bool
	sealErr  error          // non-nil once a durability failure sealed the engine
	stopOnce sync.Once      // close(stop) can race between Crash and seal
	inflight sync.WaitGroup // begins past the closed check, not yet enqueued or failed

	wg    sync.WaitGroup
	stats EngineStats
	reg   *stats.Registry
	rec   *flightRecorder

	// events is the recent-lifecycle-events ring (events.go); the sharded
	// router installs itself as its sink so fleet-level consumers (EVENTS,
	// the black-box journal) see every shard's events. lastStallEvent
	// rate-limits pipeline-stall onset events (unix nanos of the last one).
	events         eventHub
	lastStallEvent atomic.Int64

	// front is booked by a Server serving this engine directly; frontOnce
	// registers it on first use, so the shards of a ShardedEngine (whose
	// router owns the front door) export no idle copies.
	front     frontDoorStats
	frontOnce sync.Once

	// openIndexNS is the wall-clock time New spent rebuilding the read index.
	openIndexNS int64
}

// New builds an engine serving the map rooted at slot of pool and starts its
// writer loop. The engine becomes the pool's only legal mutator: direct pool
// use while the engine runs violates the single-writer model.
//
// The pool must hold no unpersisted stores (pax.ErrUnpersisted otherwise):
// the read index is rebuilt from the media image, which is the state as of
// the last persist — after an open, the recovered state, with every
// uncommitted epoch already rolled back — so nothing that was never
// persisted can be indexed.
func New(pool *pax.Pool, slot int, cfg Config) (*Engine, error) {
	if pool.Unpersisted() {
		return nil, fmt.Errorf("server: %w", pax.ErrUnpersisted)
	}
	kv, err := pax.NewMap(pool, slot)
	if err != nil {
		return nil, fmt.Errorf("server: binding map root: %w", err)
	}
	e := &Engine{
		pool: pool,
		kv:   kv,
		cfg:  cfg.withDefaults(),
		idx:  newReadIndex(),
		stop: make(chan struct{}),
	}
	e.rec = newFlightRecorder(e.cfg.TraceDepth, e.cfg.SlowDepth, e.cfg.SlowCommit)
	indexStart := time.Now()
	// NewMap stores only when it creates the map, which is then empty;
	// any other map is on media as of the last persist.
	if kv.Len() > 0 {
		err := kv.ForEachPersisted(func(key, value []byte) bool {
			// The walk hands out fresh copies, so the index can keep them.
			s := e.idx.stripe(key)
			s.m[string(key)] = value
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("server: rebuilding read index: %w", err)
		}
	}
	e.openIndexNS = time.Since(indexStart).Nanoseconds()
	e.stats.ReadIndexRebuilt.Add(uint64(e.idx.len()))
	e.reqs = make(chan *request, e.cfg.QueueDepth)
	e.sealedq = make(chan *sealedBatch, e.cfg.MaxInflightCommits)
	e.ackq = make(chan *issuedCommit, max(e.cfg.MaxInflightCommits, runAheadCommits))
	e.reg = pool.StatsRegistry()
	e.reg.RegisterCounter("paxserve_acked_writes", &e.stats.AckedWrites)
	e.reg.RegisterCounter("paxserve_acked_on_apply", &e.stats.AckedOnApply)
	e.reg.RegisterCounter("paxserve_gets", &e.stats.Gets)
	e.reg.RegisterCounter("paxserve_group_commits", &e.stats.GroupCommits)
	e.reg.RegisterCounter("paxserve_batch_max", &e.stats.BatchMax)
	e.reg.RegisterCounter("paxserve_queue_rejects", &e.stats.Rejects)
	e.reg.RegisterCounter("paxserve_read_index_hits", &e.stats.ReadIndexHits)
	e.reg.RegisterCounter("paxserve_read_index_misses", &e.stats.ReadIndexMisses)
	e.reg.RegisterCounter("paxserve_read_index_rebuilt", &e.stats.ReadIndexRebuilt)
	e.reg.RegisterCounter("paxserve_commit_retries", &e.stats.CommitRetries)
	e.reg.RegisterCounter("paxserve_commit_failures", &e.stats.CommitFailures)
	e.reg.RegisterLatencyHistogram("paxserve_enqueue_wait_ns", &e.stats.EnqueueWaitNS)
	e.reg.RegisterLatencyHistogram("paxserve_batch_seal_ns", &e.stats.BatchSealNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_persist_ns", &e.stats.PersistNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_ack_ns", &e.stats.AckNS)
	e.reg.RegisterLatencyHistogram("paxserve_commit_ns", &e.stats.CommitNS)
	e.reg.RegisterLatencyHistogram("paxserve_pipeline_stall_ns", &e.stats.PipelineStallNS)
	e.reg.RegisterLatencyHistogram("paxserve_get_hit_ns", &e.stats.GetHitNS)
	e.reg.RegisterLatencyHistogram("paxserve_get_miss_ns", &e.stats.GetMissNS)
	e.reg.RegisterLatencyHistogram("paxserve_epoch_delta_bytes", &e.stats.DeltaBytes)
	e.reg.Register("paxserve_inflight_commits", func() float64 {
		return float64(e.depth.Load())
	})
	e.reg.Register("paxserve_max_inflight_commits", func() float64 {
		return float64(e.cfg.MaxInflightCommits)
	})
	e.reg.Register("paxserve_epoch_amplification", func() float64 {
		// Mean bytes persisted per commit over the pool size: ≈1.0 in
		// full-image mode, ≪1 under the delta epoch store.
		n := e.stats.DeltaBytes.Count()
		if n == 0 {
			return 0
		}
		return float64(e.stats.DeltaBytes.Sum()) / float64(n) / float64(e.pool.MediaSize())
	})
	e.reg.Register("paxserve_open_index_ns", func() float64 { return float64(e.openIndexNS) })
	e.reg.Register("paxserve_sealed", func() float64 {
		if e.SealErr() != nil {
			return 1
		}
		return 0
	})
	e.wg.Add(3)
	go e.loop()
	go e.persister()
	go e.acker()
	return e, nil
}

// Stats exposes the engine counters.
func (e *Engine) Stats() *EngineStats { return &e.stats }

// Registry is the merged engine + pool metrics registry. The pool gauges
// read simulator state, so sample it either via the STATS request (which
// runs on the writer loop) or after Close — not concurrently with traffic.
func (e *Engine) Registry() *stats.Registry { return e.reg }

func (e *Engine) frontDoor() *frontDoorStats {
	e.frontOnce.Do(func() { e.front.register(e.reg) })
	return &e.front
}

func (r *request) finish(res result) { r.done <- res }

// begin enqueues a request without waiting for its result. On nil the
// engine owns the request and will deliver exactly one result on req.done;
// the caller must read it. Callers that enqueue from a single goroutine get
// their requests applied in call order — that is what lets the TCP server
// pipeline a connection's writes without reordering them.
//
// GETs never reach the queue: begin answers them inline from the read
// index, which is what lets the TCP server resolve a pipelined GET without
// serializing it behind the connection's PUT acks.
func (e *Engine) begin(req *request) error {
	if req.op == opSplit || req.op == opMerge {
		name := "SPLIT"
		if req.op == opMerge {
			name = "MERGE"
		}
		return fmt.Errorf("server: %s requires a sharded server (-shards >= 2)", name)
	}
	if req.op == opTrace {
		// Answered inline from the recorder's own mutex — never through the
		// queue — so a sealed or crashed engine still serves its trace, which
		// is exactly when the trace matters most.
		buf, err := json.Marshal(e.rec.snapshot())
		if err != nil {
			req.finish(result{err: err})
			return nil
		}
		req.finish(result{value: buf})
		return nil
	}
	if req.op == opEvents {
		// Inline for the same reason as TRACE: the events that explain a seal
		// must be readable from the sealed engine.
		buf, err := json.Marshal(e.Events())
		if err != nil {
			req.finish(result{err: err})
			return nil
		}
		req.finish(result{value: buf})
		return nil
	}
	if req.op == opGet {
		v, ok, err := e.Get(req.key)
		if err != nil {
			return err
		}
		req.finish(result{value: v, found: ok})
		return nil
	}
	e.mu.RLock()
	if e.closed {
		err := ErrClosed
		if e.sealErr != nil {
			err = e.sealErr
		}
		e.mu.RUnlock()
		return err
	}
	// Register as in flight while still under the lock: markClosed's write
	// lock then happens-after this Add, so Close waits for us before closing
	// the queue channel — without us holding any lock across the wait.
	e.inflight.Add(1)
	e.mu.RUnlock()
	defer e.inflight.Done()
	// Fast path: the queue usually has room, and a timer allocation per
	// request is measurable on the PUT hot loop. Only the contended path
	// pays for one.
	select {
	case e.reqs <- req:
		// Observing an exact 0 keeps the fast path timer-free while the
		// histogram's count still matches enqueues, so the p99 reflects how
		// often the queue actually pushed back.
		e.stats.EnqueueWaitNS.Observe(0)
		return nil
	default:
	}
	waitStart := time.Now()
	timer := time.NewTimer(e.cfg.EnqueueTimeout)
	defer timer.Stop()
	select {
	case e.reqs <- req:
		e.stats.EnqueueWaitNS.Since(waitStart)
		return nil
	case <-timer.C:
		e.stats.Rejects.Inc()
		return ErrBusy
	case <-e.stop:
		return e.failErr()
	}
}

// do runs one request to completion through the queue, recycling the
// request struct on every path.
func (e *Engine) do(op opKind, key, value []byte) result {
	return e.doPolicy(op, key, value, AckDurable)
}

// doPolicy is do with an explicit ack policy for mutations.
func (e *Engine) doPolicy(op opKind, key, value []byte, policy AckPolicy) result {
	req := newRequest(op, key, value)
	req.ackOnApply = policy == AckApply
	if err := e.begin(req); err != nil {
		req.release()
		return result{err: err}
	}
	res := <-req.done
	req.release()
	return res
}

// applyBarrier blocks until every request enqueued before it has been
// applied (index-visible). Unlike Persist it forces no commit — durability
// of the drained requests stays with their own acks — so it is cheap even
// on a full-image pool where every forced commit republishes the image.
func (e *Engine) applyBarrier() error {
	return e.do(opBarrier, nil, nil).err
}

// Get returns the current value for key, served from the volatile read
// index: applied order, not necessarily durable yet — read-your-writes with
// respect to acked mutations. Get never blocks behind the request queue or
// a commit in flight. The returned slice is the caller's to keep.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	// The read lock stays held across the index lookup, so seal's write
	// lock orders every read either wholly before the seal is published or
	// after it — and the seal is published before any writer sees ErrSealed.
	e.mu.RLock()
	if e.closed {
		err := e.sealErr
		e.mu.RUnlock()
		// A sealed engine fails reads too: the index may hold applied
		// mutations the media never accepted, which will roll back on
		// recovery — serving them would fabricate acked state.
		if err != nil {
			return nil, false, err
		}
		return nil, false, ErrClosed
	}
	t0 := time.Now()
	v, ok := e.idx.get(key)
	e.mu.RUnlock()
	e.stats.Gets.Inc()
	if ok {
		e.stats.ReadIndexHits.Inc()
		e.stats.GetHitNS.Since(t0)
	} else {
		e.stats.ReadIndexMisses.Inc()
		e.stats.GetMissNS.Since(t0)
	}
	return v, ok, nil
}

// Put stores key=value and blocks until the write's group commit makes it
// durable; the returned epoch is the snapshot containing it.
func (e *Engine) Put(key, value []byte) (uint64, error) {
	res := e.do(opPut, key, value)
	return res.epoch, res.err
}

// PutPolicy is Put under an explicit ack policy: AckDurable blocks until
// the group commit (the Put contract); AckApply returns as soon as the
// mutation is applied and read-index-visible, reporting the open epoch it
// will commit in — durability is asynchronous and the write may roll back
// if the engine crashes before that epoch persists.
func (e *Engine) PutPolicy(key, value []byte, policy AckPolicy) (uint64, error) {
	res := e.doPolicy(opPut, key, value, policy)
	return res.epoch, res.err
}

// Delete removes key, blocking like Put; found reports prior presence.
func (e *Engine) Delete(key []byte) (bool, uint64, error) {
	res := e.do(opDelete, key, nil)
	return res.found, res.epoch, res.err
}

// DeletePolicy is Delete under an explicit ack policy (see PutPolicy).
func (e *Engine) DeletePolicy(key []byte, policy AckPolicy) (bool, uint64, error) {
	res := e.doPolicy(opDelete, key, nil, policy)
	return res.found, res.epoch, res.err
}

// Persist forces a group commit and returns the durable epoch.
func (e *Engine) Persist() (uint64, error) {
	res := e.do(opPersist, nil, nil)
	return res.epoch, res.err
}

// PersistPolicy is Persist under an explicit ack policy: AckApply schedules
// the forced commit but returns immediately with the still-open epoch
// instead of waiting for media.
func (e *Engine) PersistPolicy(policy AckPolicy) (uint64, error) {
	res := e.doPolicy(opPersist, nil, nil, policy)
	return res.epoch, res.err
}

// StatsText renders the metrics registry on the writer loop (so sampling
// never races the mutator) and returns the `name value` lines. A sealed
// engine still renders: health must stay observable after a failure, and
// with the writer loop gone direct sampling cannot race a mutator.
func (e *Engine) StatsText() (string, error) {
	res := e.do(opStats, nil, nil)
	if res.err != nil && errors.Is(res.err, ErrSealed) {
		e.wg.Wait()
		return e.reg.Text(), nil
	}
	return res.text, res.err
}

// Snapshot samples the metrics registry on the writer loop and returns the
// raw summary — the structured form of StatsText, for callers (the sharded
// router) that merge several engines' metrics before rendering. Like
// StatsText it keeps working on a sealed engine, so a sharded STATS can
// report per-shard health with one shard down.
func (e *Engine) Snapshot() (stats.Summary, error) {
	res := e.do(opSnapshot, nil, nil)
	if res.err != nil && errors.Is(res.err, ErrSealed) {
		e.wg.Wait()
		return e.reg.Snapshot(), nil
	}
	return res.snap, res.err
}

// SealErr reports the durability failure that sealed the engine fail-stop
// (nil while healthy). A sealed engine rejects every request with this
// error; previously acked writes are unaffected.
func (e *Engine) SealErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sealErr
}

// markClosed flips the closed flag once; reports whether this call did it.
func (e *Engine) markClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.closed = true
	return true
}

// failErr is the error requests receive when the loop is gone: the seal
// error after a durability failure, plain ErrClosed otherwise.
func (e *Engine) failErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.sealErr != nil {
		return e.sealErr
	}
	return ErrClosed
}

// seal marks the engine failed-stop after cause: every subsequent request —
// and everything still queued — fails with the seal error. Unlike Close it
// never attempts a final persist; the medium already refused one.
//
// It returns the published seal error, the one value every failed waiter
// must receive (so a waiter's error == SealErr()). Callers publish the seal
// before telling any waiter: once a writer has seen ErrSealed, no Get may
// still serve the index, which holds state the media never accepted.
func (e *Engine) seal(cause error) error {
	e.mu.Lock()
	first := e.sealErr == nil
	if first {
		e.sealErr = fmt.Errorf("%w: %v", ErrSealed, cause)
	}
	err := e.sealErr
	e.closed = true
	e.mu.Unlock()
	if first {
		e.events.emit(blackbox.EvSeal, 0, errDetail{Error: cause.Error()})
	}
	e.stopOnce.Do(func() { close(e.stop) })
	return err
}

// drainQueue fails every queued request with failErr. Callers must ensure
// nothing can still enter the queue (stop closed and inflight drained, or
// the channel closed).
func (e *Engine) drainQueue() {
	for {
		select {
		case req, ok := <-e.reqs:
			if !ok {
				return // Close raced us and closed the channel
			}
			req.finish(result{err: e.failErr()})
		default:
			return
		}
	}
}

// Close drains the queue, commits every remaining mutation plus the open
// epoch, and stops the writer loop. Requests arriving after Close fail with
// ErrClosed. Close does not close the pool — the owner does. If the engine
// sealed — before Close, or while Close's final commit ran — the sealing
// durability error is returned: callers must not treat a sealed shard's
// shutdown as clean.
func (e *Engine) Close() error {
	if e.markClosed() {
		// Every begin that passed the closed check is registered in
		// inflight; the writer loop is still consuming, so those blocked
		// sends drain promptly (bounded by EnqueueTimeout). Only then is it
		// safe to close the channel. If the loop died sealing mid-drain, its
		// own drain (which tolerates the channel closing) empties the queue.
		e.inflight.Wait()
		close(e.reqs)
	}
	e.wg.Wait()
	return e.SealErr()
}

// Crash is the test hook for failure injection: it stops the writer loop
// without committing, abandoning applied-but-unacked mutations exactly as a
// machine crash would. Queued and in-flight requests fail with ErrClosed (or
// the seal error, if a durability failure got there first).
func (e *Engine) Crash() {
	if !e.markClosed() {
		// Already closed (gracefully or by an earlier Crash): nothing to
		// abandon, just wait the loop out.
		e.wg.Wait()
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	// Senders blocked on a full queue saw e.stop (or completed their send);
	// once inflight drains, nothing can enter the queue anymore — new
	// begins see closed — so this drain is exhaustive.
	e.inflight.Wait()
	e.drainQueue()
}

// apply executes one request against the pool, under poolMu so no mutation
// (or registry sample of live pool state) overlaps a snapshot point in the
// persister. Ack-on-durable mutations and persists are returned as waiters
// to be acked at the batch commit; barriers and stats are answered
// immediately, and ack-on-apply mutations are acked right here — after the
// read-index mirror, so an acked-on-apply write is read-your-writes
// visible — with mutated reporting that the batch still needs a commit.
func (e *Engine) apply(req *request) (waiter *request, mutated bool) {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	switch req.op {
	case opPut:
		if err := e.kv.Put(req.key, req.value); err != nil {
			req.finish(result{err: err})
			return nil, false
		}
		e.idx.put(req.key, req.value)
		if req.ackOnApply {
			e.stats.AckedOnApply.Inc()
			req.finish(result{epoch: e.pool.Epoch()})
			return nil, true
		}
		return req, true
	case opDelete:
		found, err := e.kv.Delete(req.key)
		if err != nil {
			req.finish(result{err: err})
			return nil, false
		}
		e.idx.delete(req.key)
		req.found = found
		if req.ackOnApply {
			e.stats.AckedOnApply.Inc()
			req.finish(result{found: found, epoch: e.pool.Epoch()})
			return nil, true
		}
		return req, true
	case opPersist:
		if req.ackOnApply {
			// The forced commit is scheduled (the batch seals force), but
			// the caller does not wait for media: it learns the still-open
			// epoch that the commit will make durable.
			req.finish(result{epoch: e.pool.Epoch()})
			return nil, true
		}
		return req, true
	case opBarrier:
		req.finish(result{epoch: e.pool.Epoch()})
		return nil, false
	case opStats:
		req.finish(result{text: e.reg.Text()})
		return nil, false
	case opSnapshot:
		req.finish(result{snap: e.reg.Snapshot()})
		return nil, false
	}
	req.finish(result{err: fmt.Errorf("server: unknown op %d", req.op)})
	return nil, false
}

// persistLocked runs one persist attempt under poolMu: the snapshot point
// must not overlap a sealer apply (§3.5).
func (e *Engine) persistLocked() (pax.PersistStats, error) {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	return e.pool.Persist()
}

// maxRetryDoublings caps the commit-retry backoff at 6 doublings (64× the
// base delay): past that, longer waits model nothing — and an unclamped
// `delay << attempt` would overflow time.Duration near attempt 40, turning
// a large CommitRetries budget into effectively-infinite (or negative)
// sleeps.
const maxRetryDoublings = 6

// retryDelay is the backoff before retry attempt (0-based): the base delay
// doubled per attempt, clamped at maxRetryDoublings.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if attempt > maxRetryDoublings {
		attempt = maxRetryDoublings
	}
	return base << attempt
}

// persistSealed issues the snapshot for one sealed batch. A persist whose
// media sync fails is retried up to CommitRetries times with doubling
// (clamped) backoff — retrying is legal because a failed Sync never
// publishes a partial image, and nothing is acked until one attempt fully
// succeeds; the backoff sleeps run outside poolMu so the sealer keeps
// applying between attempts. On success the commit is handed to the acker
// with its media deadline; on exhaustion the engine seals, and only then
// are the batch's waiters failed (never acked) with the seal error; the
// failed CommitRecord is pinned and the error returns to the persister.
func (e *Engine) persistSealed(b *sealedBatch) (*issuedCommit, error) {
	rec := CommitRecord{
		Batch:    b.mutations,
		Inflight: b.inflight,
		Start:    b.start.UnixNano(),
		SealNS:   b.sealNS,
	}
	persistStart := time.Now()
	st, err := e.persistLocked()
	for attempt := 0; err != nil && attempt < e.cfg.CommitRetries; attempt++ {
		e.stats.CommitRetries.Inc()
		rec.Retries++
		time.Sleep(retryDelay(e.cfg.CommitRetryDelay, attempt))
		st, err = e.persistLocked()
	}
	// The snapshot point has settled either way — taken, or abandoned for
	// good — so the sealer may open the next batch.
	close(b.snapped)
	if err != nil {
		e.stats.CommitFailures.Inc()
		rec.PersistNS = int64(time.Since(persistStart))
		rec.TotalNS = b.sealNS + rec.PersistNS
		rec.Err = err.Error()
		rec = e.rec.record(rec)
		e.events.emit(blackbox.EvCommitFailed, 0, rec)
		failAll(b.waiters, e.seal(err))
		return nil, err
	}
	return &issuedCommit{
		b:         b,
		st:        st,
		rec:       rec,
		issued:    persistStart,
		persisted: time.Now(),
	}, nil
}

// finishCommit acks one durable epoch and books its accounting: called by
// the acker once the commit's media deadline has passed.
func (e *Engine) finishCommit(ic *issuedCommit) {
	b, st, rec := ic.b, ic.st, ic.rec
	// The modeled media latency counts as persist time: it is the commit
	// being on the medium, which is what the persist stage means.
	rec.PersistNS = int64(time.Since(ic.issued))
	rec.Epoch = st.Epoch
	rec.DeltaBytes = st.PersistedBytes
	rec.PoolBytes = int64(e.pool.MediaSize())
	e.stats.DeltaBytes.Observe(st.PersistedBytes)
	e.stats.GroupCommits.Inc()
	if b.mutations > 0 {
		e.stats.BatchMax.StoreMax(uint64(b.mutations))
	}
	ackStart := time.Now()
	for _, w := range b.waiters {
		if w.op != opPersist {
			e.stats.AckedWrites.Inc()
		}
		w.finish(result{found: w.found, epoch: st.Epoch})
	}
	rec.AckNS = int64(time.Since(ackStart))
	rec.TotalNS = rec.SealNS + rec.PersistNS + rec.AckNS
	e.stats.BatchSealNS.Observe(rec.SealNS)
	e.stats.PersistNS.Observe(rec.PersistNS)
	e.stats.AckNS.Observe(rec.AckNS)
	e.stats.CommitNS.Observe(rec.TotalNS)
	rec = e.rec.record(rec)
	if thr := e.cfg.SlowCommit; thr > 0 && rec.TotalNS >= int64(thr) {
		e.events.emit(blackbox.EvCommitSlow, 0, rec)
	}
}

// Trace returns the flight recorder's current contents. Safe on a sealed,
// crashed, or closed engine — the recorder outlives the writer loop.
func (e *Engine) Trace() TraceSnapshot { return e.rec.snapshot() }

// Events returns the engine's recent lifecycle events, oldest first. Like
// Trace it is safe on a sealed or crashed engine.
func (e *Engine) Events() EventsSnapshot { return EventsSnapshot{Events: e.events.snapshot()} }

// SetEventSink forwards every subsequent lifecycle event to fn (nil clears).
// The sharded router uses it to merge per-shard events into its fleet hub.
func (e *Engine) SetEventSink(fn func(Event)) { e.events.setSink(fn) }

func failAll(waiters []*request, err error) {
	for _, w := range waiters {
		w.finish(result{err: err})
	}
}

// stopped reports whether stop has been closed (crash or seal).
func (e *Engine) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// runAheadCommits is the pipeline's run-ahead buffer (ackq capacity, unless
// MaxInflightCommits is larger): how many snapshotted epochs may sit awaiting
// their modeled media completion before the sealer is pushed back on. It is
// the memory bound on applying ahead of durability — an issuedCommit is a
// few pointers plus its ack-on-durable waiters, so a deep buffer is cheap,
// and it is what lets ack-on-apply latency stay at host speed while a media
// backlog drains: only a backlog of seconds of modeled media time (4096
// epochs × CommitLatency / window) pushes back on the host.
const runAheadCommits = 4096

// sealToPipeline hands a sealed batch to the persister, charging blocked
// time — the run-ahead buffer full, media backlog pushing back — to
// PipelineStallNS. It reports false when the engine stopped first.
func (e *Engine) sealToPipeline(b *sealedBatch) bool {
	select {
	case e.sealedq <- b:
		// Observing an exact 0 keeps the unblocked path timer-free while
		// the histogram's count still matches seals.
		e.stats.PipelineStallNS.Observe(0)
	default:
		stallStart := time.Now()
		// Stall *onset* is a lifecycle event (rate-limited to one per
		// second — a saturated pipeline stalls every seal): the black box
		// wants "backlog began here", not one record per blocked epoch.
		if last := e.lastStallEvent.Load(); stallStart.UnixNano()-last >= int64(time.Second) &&
			e.lastStallEvent.CompareAndSwap(last, stallStart.UnixNano()) {
			e.events.emit(blackbox.EvStall, 0, stallDetail{
				Depth: int64(len(e.sealedq)),
				Epoch: e.pool.Epoch() + 1,
			})
		}
		select {
		case e.sealedq <- b:
			e.stats.PipelineStallNS.Since(stallStart)
		case <-e.stop:
			return false
		}
	}
	return true
}

// loop is the sealer: the writer goroutine that owns request admission and
// applies batches. A batch seals when it is full, when MaxDelay expires, on
// an explicit persist, or when the engine drains for shutdown. Closing
// sealedq on every exit path is what winds down the persister (and, through
// it, the acker).
func (e *Engine) loop() {
	defer e.wg.Done()
	defer close(e.sealedq)
	for {
		select {
		case <-e.stop:
			return
		case req, ok := <-e.reqs:
			if !ok {
				// Graceful shutdown: every prior batch is already sealed, so
				// one empty batch seals the open epoch — through the normal
				// pipeline, so the final persist gets the same retry budget,
				// latency model, and accounting as any group commit. If even
				// that fails, the persister seals the engine and Close
				// surfaces the error.
				e.sealToPipeline(&sealedBatch{
					start:    time.Now(),
					inflight: int(e.depth.Load()) + 1,
					snapped:  make(chan struct{}),
				})
				return
			}
			if !e.runBatch(req) {
				return
			}
		}
	}
}

// runBatch opens a batch with first and keeps applying until a seal
// condition fires, then hands the sealed batch to the persister. It reports
// false when the engine crashed or sealed mid-batch.
func (e *Engine) runBatch(first *request) bool {
	if last := e.lastSealed; last != nil {
		// The previous batch's snapshot point must settle before this batch
		// applies anything: only media time overlaps, so no mutation can be
		// absorbed into an earlier epoch's snapshot. The wait is host-speed
		// (the snapshot itself, not the modeled media latency) and the
		// applies would have serialized against it on poolMu anyway.
		select {
		case <-last.snapped:
		case <-e.stop:
			first.finish(result{err: e.failErr()})
			return false
		}
		e.lastSealed = nil
	}
	b := &sealedBatch{start: time.Now(), snapped: make(chan struct{})}
	force := first.op == opPersist
	e.applyInto(b, first)
	if b.mutations == 0 {
		return true // pure reads/stats: nothing to commit
	}
	timer := time.NewTimer(e.cfg.MaxDelay)
	defer timer.Stop()
	for !force && b.mutations < e.cfg.MaxBatch {
		select {
		case <-e.stop:
			failAll(b.waiters, e.failErr())
			return false
		case <-timer.C:
			force = true
		case req, ok := <-e.reqs:
			if !ok {
				// Closing: seal what we have; loop sees !ok next and seals
				// the open epoch.
				force = true
				continue
			}
			if req.op == opPersist {
				force = true
			}
			e.applyInto(b, req)
		}
	}
	b.sealNS = int64(time.Since(b.start))
	b.inflight = int(e.depth.Load()) + 1 // this batch included
	if !e.sealToPipeline(b) {
		failAll(b.waiters, e.failErr())
		return false
	}
	e.lastSealed = b
	return true
}

// applyInto applies one request as part of batch b, collecting its waiter
// and mutation count.
func (e *Engine) applyInto(b *sealedBatch, req *request) {
	w, mutated := e.apply(req)
	if w != nil {
		b.waiters = append(b.waiters, w)
	}
	if mutated {
		b.mutations++
	}
}

// persister is the second pipeline stage: it turns sealed batches into
// issued commits, in seal order. When a persist fails after retries,
// persistSealed has sealed the engine and failed the batch's waiters; the
// persister then fails every later sealed-but-unpersisted batch
// — an unacked in-flight epoch is legal to abandon, but it must never ack.
// Epochs already handed to the acker persisted successfully and still ack.
// After a seal (or crash) it also drains the request queue, once nothing
// can enter it anymore.
func (e *Engine) persister() {
	defer e.wg.Done()
	defer close(e.ackq)
	failed := false
	for b := range e.sealedq {
		if failed || e.stopped() {
			// Sealed behind a failure (or a crash): the commit never
			// happened, so the waiters must fail, never ack.
			close(b.snapped)
			failAll(b.waiters, e.failErr())
			continue
		}
		e.depth.Add(1)
		ic, err := e.persistSealed(b)
		if err != nil {
			failed = true
			e.depth.Add(-1)
			continue
		}
		e.ackq <- ic
	}
	if failed {
		// Seal closed stop, so in-flight begins unwind; once they do,
		// nothing can enter the queue anymore — new begins see closed — so
		// this drain is exhaustive and no queued request is left waiting on
		// a dead pipeline.
		e.inflight.Wait()
		e.drainQueue()
	}
}

// acker is the third pipeline stage: it releases each commit's waiters in
// epoch order (ackq is FIFO from the persister) once the commit's modeled
// media work completes. It models the device as MaxInflightCommits commit
// slots, each busy for CommitLatency per epoch: commit i's media work starts
// at max(its persist, slot i mod W freeing), so back-to-back commits overlap
// W deep while W=1 serializes them — the serial A/B baseline. After a crash
// or seal the remaining modeled waits are skipped: everything in ackq really
// persisted, so its acks are correct and shutdown should not sleep them out.
func (e *Engine) acker() {
	defer e.wg.Done()
	slots := make([]time.Time, e.cfg.MaxInflightCommits)
	next := 0
	for ic := range e.ackq {
		deadline := ic.persisted
		if slots[next].After(deadline) {
			deadline = slots[next]
		}
		deadline = deadline.Add(e.cfg.CommitLatency)
		slots[next] = deadline
		next = (next + 1) % len(slots)
		if d := time.Until(deadline); d > 0 && !e.stopped() {
			// The wait must abort the moment the engine stops: with a deep
			// ackq backlog an uninterruptible sleep would hold Close/Crash
			// hostage for up to backlog×CommitLatency of modeled media time,
			// all of it spent acking commits that already persisted.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-e.stop:
				t.Stop()
			}
		}
		e.finishCommit(ic)
		e.depth.Add(-1)
	}
}
