package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pax/internal/epochlog"
	"pax/internal/pmem"
	"pax/internal/server"
	"pax/internal/wire"
)

// config is one run's settings. Everything but the scale fields comes from
// the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // paxserve binary
	work     string // work directory for pools, logs, spans and records
	gitRev   string
	gitDirty bool

	keys     int           // keys preloaded before the clock starts
	callers  int           // pipelined callers per connection
	writers  int           // PUT callers beside the readers in read-mostly-zipf
	inserts  int           // fresh keys crash-recover writes before the kill
	setups   int           // server set-ups per run; setup_s is their median
	restarts int           // timed restarts after the kill; recover_s is their median
	zipfS    float64       // skew of read-mostly-zipf
	probe    time.Duration // length of each in-process probe of a traced run

	// hook, when set, runs after the last restart with a client on the
	// recovered server, before the verify sweep. The self-test uses it to
	// corrupt values and drop acked keys behind the checker's back.
	hook func(c *wire.Client) error
}

// fullScale is the scale the benchmark is defined at.
func fullScale(c config) config {
	c.keys, c.callers, c.writers, c.inserts = 50000, 32, 2, 12000
	c.setups, c.restarts, c.zipfS, c.probe = 2, 5, 1.2, 1500*time.Millisecond
	return c
}

const (
	putUniform     = "put-uniform"
	readMostlyZipf = "read-mostly-zipf"
	crashRecover   = "crash-recover"
)

var workloads = []string{putUniform, readMostlyZipf, crashRecover}

// kv is the call surface the op loops drive: a wire.Client over TCP, or a
// server.ShardedEngine in-process for the traced engine probe.
type kv interface {
	Put(key, value []byte) (uint64, error)
	Get(key []byte) ([]byte, bool, error)
}

// lane is one connection's callers running op until it returns false.
type lane struct {
	c       kv
	callers int
	op      func(c kv, rec *recorder, r *rand.Rand, val []byte) bool
}

// drive runs every lane's callers at once, each until its op returns
// false, and returns each lane's ops.
func drive(seed int64, lanes []lane) []opResult {
	recs := make([][]*recorder, len(lanes))
	var wg sync.WaitGroup
	for li, l := range lanes {
		for k := 0; k < l.callers; k++ {
			rec, r := &recorder{}, rngFor(seed, li, k)
			recs[li] = append(recs[li], rec)
			wg.Add(1)
			go func() {
				defer wg.Done()
				val := make([]byte, valueLen)
				for l.op(l.c, rec, r, val) {
				}
			}()
		}
	}
	wg.Wait()
	out := make([]opResult, len(lanes))
	for li := range lanes {
		out[li] = merge(recs[li])
	}
	return out
}

// bench is one run in progress.
type bench struct {
	cfg     config
	dir     string // this run's directory under cfg.work
	pool    string // the measured pool, inside the last set-up directory
	logPath string
	ks      *keyspace
	f       failures
	tr      *tracer
	attempt atomic.Int64
	res     *result
	perm    []int   // zipf rank -> key index
	sweep   *window // the post-restart verify sweep
}

func (b *bench) dial(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dialing paxserve: %w", err)
	}
	return c, nil
}

func (b *bench) e2e(name, unit string, value float64, source string, s *summary) {
	b.res.E2E[name] = &metric{Name: name, Unit: unit, Value: value, Source: source, Summary: s}
}

func (b *bench) na(name, unit string) {
	b.res.E2E[name] = &metric{Name: name, Unit: unit, NA: true}
}

// stage records the wall time of a run stage that began at start and
// returns the time it ended.
func (b *bench) stage(name string, start time.Time) time.Time {
	now := time.Now()
	b.res.Stages[name] = now.Sub(start).Seconds()
	return now
}

func (b *bench) warn(format string, args ...any) {
	b.res.Warnings = append(b.res.Warnings, fmt.Sprintf(format, args...))
}

// run executes one workload end to end and returns its result. The run
// directory is removed afterwards; spans and the result record stay in
// cfg.work.
func run(cfg config) (*result, error) {
	b := &bench{cfg: cfg, res: &result{E2E: map[string]*metric{}, Stages: map[string]float64{}}}
	b.dir = filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	_ = os.RemoveAll(b.dir)
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	b.logPath = filepath.Join(b.dir, "paxserve.log")
	b.res.Provenance = hostProvenance(cfg, b.dir)
	if cfg.trace {
		b.tr = newTracer()
		b.res.Layer = map[string]float64{}
	}
	n := cfg.keys
	if cfg.workload == crashRecover {
		n += cfg.inserts
	}
	b.ks = newKeyspace(n)
	b.perm = rand.New(rand.NewSource(cfg.seed)).Perm(cfg.keys)

	t := time.Now()
	srv, setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	// From here on a failure must not leave the child behind.
	live := srv
	defer func() {
		if live != nil {
			live.kill()
		}
	}()
	b.e2e("setup_s", "s", setupS.Median, "spawn + preload", &setupS)

	t = b.stage("setup", t)
	if srv, err = b.reopen(srv); err != nil {
		live = nil
		return nil, err
	}
	live = srv
	w, err := b.measured(srv)
	if err != nil {
		return nil, err
	}
	t = b.stage("measured", t)
	b.res.StealFrac = w.stealFrac
	if err := b.report(srv, w); err != nil {
		return nil, err
	}

	live = nil
	srv.kill()
	if err := b.recoverAndVerify(w); err != nil {
		return nil, err
	}
	if cfg.workload == crashRecover {
		src := "reads after restart"
		b.opMetrics("get", b.sweep.get, b.sweep.done.Sub(b.sweep.start), src)
		b.cpuPerOp(b.sweep, src)
	} else {
		b.cpuPerOp(w, "measured phase")
	}
	if len(b.sweep.rss) > 0 {
		s := summarize(b.sweep.rss)
		b.e2e("server_rss_mb", "MiB", s.Median, "recovered server, median VmRSS", &s)
	}
	t = b.stage("crash_check", t)
	if cfg.trace {
		if err := b.probes(w); err != nil {
			return nil, err
		}
		b.layers(w)
		b.stage("probes", t)
		if err := b.tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}

	b.res.Attempted = b.attempt.Load()
	b.res.Failed = b.f.total()
	b.res.FirstFail = b.f.first
	// Outputs are correct when no value was wrong, no preloaded key went
	// missing, and no acked write was lost. Refused or errored requests
	// count as failures without making the outputs wrong.
	b.res.Correct = b.f.wrong.Load() == 0 && b.f.notFound.Load() == 0 && b.f.lost.Load() == 0
	if b.res.Attempted > 0 {
		b.e2e("failed_frac", "ratio", float64(b.res.Failed)/float64(b.res.Attempted), "all ops", nil)
	}
	return b.res, nil
}

func (b *bench) hook(addr string) error {
	if b.cfg.hook == nil {
		return nil
	}
	c, err := b.dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return b.cfg.hook(c)
}

// setup spawns a server on a fresh pool and preloads every key, cfg.setups
// times; all but the last server are discarded. It returns the last server
// and the spread of the set-up times.
func (b *bench) setup() (*child, summary, error) {
	var times []float64
	for s := 0; s < b.cfg.setups; s++ {
		poolDir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", s))
		if err := os.MkdirAll(poolDir, 0o755); err != nil {
			return nil, summary{}, err
		}
		pool := filepath.Join(poolDir, "kv.pool")
		t0 := time.Now()
		srv, err := startServer(b.cfg.bin, pool, b.logPath)
		if err != nil {
			return nil, summary{}, err
		}
		if err := b.preload(srv.addr, s == b.cfg.setups-1); err != nil {
			srv.kill()
			return nil, summary{}, err
		}
		times = append(times, time.Since(t0).Seconds())
		if s == b.cfg.setups-1 {
			b.pool = pool
			return srv, summarize(times), nil
		}
		srv.kill()
		if err := os.RemoveAll(poolDir); err != nil {
			return nil, summary{}, err
		}
	}
	return nil, summary{}, errors.New("no set-up ran")
}

// preload writes version 1 of every key with durable PUTs. Only the kept
// server's preload updates the keyspace.
func (b *bench) preload(addr string, keep bool) error {
	ks := b.ks
	if !keep {
		ks = newKeyspace(b.cfg.keys)
	}
	cs, closeAll, err := b.clients(addr, 2)
	if err != nil {
		return err
	}
	defer closeAll()
	p := newPhase(ks, &b.f, nil, time.Now().Add(time.Hour))
	var next atomic.Int64
	op := insertOp(p, &next, 0, b.cfg.keys)
	res := drive(b.cfg.seed, []lane{{c: cs[0], callers: 2 * b.cfg.callers, op: op}, {c: cs[1], callers: 2 * b.cfg.callers, op: op}})
	r := combine(res...)
	b.attempt.Add(int64(r.ops()))
	if r.errs > 0 {
		return fmt.Errorf("preload: %d PUTs failed; first: %s", r.errs, b.f.first)
	}
	return nil
}

// window is one measured phase: its op results, its wall interval, the
// server CPU it used, and the server counters around it.
type window struct {
	start, deadline, done time.Time
	cpuTicks              int64
	before, after         statsSnap
	put, get              opResult
	rss                   []float64 // paxserve VmRSS samples, MiB
	stealFrac             float64   // share of the host's CPU time stolen by the hypervisor
}

// rssEvery is how often a measured phase samples paxserve's resident set.
const rssEvery = 200 * time.Millisecond

// measure runs the lanes build returns against srv as the measured phase:
// time-based when seconds > 0, else until every lane runs out of work.
// puts and gets separate the lanes whose ops count as PUTs and as GETs.
func (b *bench) measure(srv *child, seconds time.Duration, build func(p *phase) (puts, gets []lane)) (*window, error) {
	ctl, err := b.dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	w := &window{}
	if w.before, err = fetchStats(ctl); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	host0, steal0 := hostCPU()
	deadline := time.Now().Add(seconds)
	if seconds == 0 {
		deadline = time.Now().Add(time.Hour)
	}
	p := newPhase(b.ks, &b.f, b.tr, deadline)
	w.start = p.start
	puts, gets := build(p)
	if b.tr != nil {
		b.tr.alternate()
	}
	stopRSS, rssDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := srv.statusMiB("VmRSS"); err == nil {
				w.rss = append(w.rss, v)
			}
			select {
			case <-stopRSS:
				return
			case <-tick.C:
			}
		}
	}()
	res := drive(b.cfg.seed, append(append([]lane(nil), puts...), gets...))
	close(stopRSS)
	<-rssDone
	if b.tr != nil {
		b.tr.stopAlternating()
	}
	w.done = time.Now()
	w.deadline = p.deadline
	if seconds == 0 {
		w.deadline = w.done
	}
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	w.cpuTicks = cpu1 - cpu0
	host1, steal1 := hostCPU()
	w.stealFrac = div(float64(steal1-steal0), float64(host1-host0))
	if w.after, err = fetchStats(ctl); err != nil {
		return nil, err
	}
	w.put = combine(res[:len(puts)]...)
	w.get = combine(res[len(puts):]...)
	b.attempt.Add(int64(w.put.ops() + w.get.ops()))
	if b.tr != nil {
		b.tr.add(w.put.spans...)
		b.tr.add(w.get.spans...)
	}
	return w, nil
}

// clients dials n connections to addr.
func (b *bench) clients(addr string, n int) ([]*wire.Client, func(), error) {
	var cs []*wire.Client
	closeAll := func() {
		for _, c := range cs {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := b.dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cs = append(cs, c)
	}
	return cs, closeAll, nil
}

// putOp is a closed-loop PUT caller: one key at a time, the next request
// only after the durable ack.
func putOp(p *phase, pick func(r *rand.Rand) picker) func(c kv, rec *recorder, r *rand.Rand, val []byte) bool {
	return func(c kv, rec *recorder, r *rand.Rand, val []byte) bool {
		if !time.Now().Before(p.deadline) {
			return false
		}
		if rec.pick == nil {
			rec.pick = pick(r)
		}
		p.put(c, rec, p.ks.acquire(rec.pick), val)
		return true
	}
}

// getOp is a closed-loop GET caller.
func getOp(p *phase, pick func(r *rand.Rand) picker) func(c kv, rec *recorder, r *rand.Rand, val []byte) bool {
	return func(c kv, rec *recorder, r *rand.Rand, _ []byte) bool {
		if !time.Now().Before(p.deadline) {
			return false
		}
		if rec.pick == nil {
			rec.pick = pick(r)
		}
		p.get(c, rec, rec.pick())
		return true
	}
}

// insertOp PUTs each key of [lo, hi) once, in order across all callers.
func insertOp(p *phase, next *atomic.Int64, lo, hi int) func(c kv, rec *recorder, r *rand.Rand, val []byte) bool {
	return func(c kv, rec *recorder, _ *rand.Rand, val []byte) bool {
		i := lo + int(next.Add(1)-1)
		if i >= hi {
			return false
		}
		p.ks.busy[i].Store(true)
		p.put(c, rec, i, val)
		return true
	}
}

func (b *bench) uniform(r *rand.Rand) picker { return uniformPicker(r, b.cfg.keys) }
func (b *bench) zipf(r *rand.Rand) picker    { return zipfPicker(r, b.cfg.zipfS, b.perm) }

// streams returns the lanes of workload's measured op stream over cs (two
// connections, or the same in-process engine twice). The traced engine
// probe replays the same stream without TCP.
func (b *bench) streams(p *phase, cs [2]kv) (puts, gets []lane) {
	switch b.cfg.workload {
	case readMostlyZipf:
		// One connection of GETs beside one of a few durable PUTs: a single
		// mixed connection would queue GETs behind durable PUTs in response
		// order and hide the read path.
		return []lane{{c: cs[1], callers: b.cfg.writers, op: putOp(p, b.zipf)}},
			[]lane{{c: cs[0], callers: b.cfg.callers, op: getOp(p, b.zipf)}}
	case crashRecover:
		var next atomic.Int64
		op := insertOp(p, &next, b.cfg.keys, b.cfg.keys+b.cfg.inserts)
		return []lane{{c: cs[0], callers: b.cfg.callers, op: op}, {c: cs[1], callers: b.cfg.callers, op: op}}, nil
	default:
		op := putOp(p, b.uniform)
		return []lane{{c: cs[0], callers: b.cfg.callers, op: op}, {c: cs[1], callers: b.cfg.callers, op: op}}, nil
	}
}

// measured runs the workload's measured phase over two connections.
// put-uniform and read-mostly-zipf run for cfg.seconds; crash-recover
// writes a fixed count of fresh keys, sized so that no background
// checkpoint runs before the kill and every run replays the same log.
func (b *bench) measured(srv *child) (*window, error) {
	cs, closeAll, err := b.clients(srv.addr, 2)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	seconds := time.Duration(b.cfg.seconds) * time.Second
	if b.cfg.workload == crashRecover {
		seconds = 0
	}
	w, err := b.measure(srv, seconds, func(p *phase) ([]lane, []lane) {
		return b.streams(p, [2]kv{cs[0], cs[1]})
	})
	if err != nil {
		return nil, err
	}
	if b.cfg.workload == crashRecover {
		if ck := delta(w.before, w.after, "pax_epoch_checkpoints_total"); ck != 0 {
			b.warn("crash-recover: %v background checkpoints ran during the write phase; the replayed log is not the same every run", ck)
		}
	}
	return w, nil
}

// reopen waits until no background checkpoint is pending on any shard
// (every epoch log below the checkpoint threshold), stops the preloaded
// server cleanly, restarts it on its files and flushes dirty pages. The
// measured phase then starts from the same disk state whatever the
// preload left in flight, on a server whose heap holds no trace of pool
// creation, like a server restarted on a pool made long before.
func (b *bench) reopen(srv *child) (*child, error) {
	c, err := b.dial(srv.addr)
	if err != nil {
		srv.kill()
		return nil, err
	}
	err = settle(c)
	c.Close()
	srv.stop()
	if err != nil {
		return nil, err
	}
	srv, err = startServer(b.cfg.bin, b.pool, b.logPath)
	if err != nil {
		return nil, err
	}
	syscall.Sync()
	return srv, nil
}

// settle waits until no shard has a background checkpoint pending.
func settle(c *wire.Client) error {
	for deadline := time.Now().Add(60 * time.Second); ; {
		st, err := fetchStats(c)
		if err != nil {
			return err
		}
		pending := false
		for k := 0; k < 2; k++ {
			pending = pending || st[fmt.Sprintf(`pax_epoch_log_live_bytes{shard="%d"}`, k)] >= pmem.DefaultCheckpointBytes
		}
		if !pending {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("a background checkpoint did not finish within 60s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// replayInfo opens each shard's epoch log read-only and sums what a restart
// will replay.
func (b *bench) replayInfo() (records int, bytes int64, err error) {
	for k := 0; k < 2; k++ {
		st, err := epochlog.Open(epochlog.Config{Dir: server.ShardPath(b.pool, 2, k) + epochlog.DirSuffix, ReadOnly: true})
		if err != nil {
			return 0, 0, fmt.Errorf("reading the epoch log: %w", err)
		}
		info := st.Info()
		records += info.Records
		bytes += info.Bytes
		if err := st.Close(); err != nil {
			return 0, 0, err
		}
	}
	return records, bytes, nil
}

// recoverAndVerify restarts paxserve on the crashed files cfg.restarts
// times, timing each restart to its first served GET, then GETs every key
// and checks it holds its last acked value.
func (b *bench) recoverAndVerify(w *window) error {
	records, bytes, err := b.replayInfo()
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.res.Layer["epochlog.replay_records"] = float64(records)
		b.res.Layer["epochlog.replay_bytes"] = float64(bytes)
		for _, name := range []string{"open", "engine"} {
			if err := copyTree(filepath.Dir(b.pool), filepath.Join(b.dir, "probe-"+name)); err != nil {
				return fmt.Errorf("copying the crashed pool: %w", err)
			}
		}
	}
	var recover []float64
	var srv *child
	for r := 0; r < b.cfg.restarts; r++ {
		t0 := time.Now()
		s, err := startServer(b.cfg.bin, b.pool, b.logPath)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		c, err := b.dial(s.addr)
		if err == nil {
			var val []byte
			var ok bool
			val, ok, err = c.Get(keyName(0))
			if err == nil {
				recover = append(recover, time.Since(t0).Seconds())
				b.attempt.Add(1)
				b.ks.verifyKey(&b.f, 0, val, ok)
			}
			c.Close()
		}
		if err != nil {
			s.kill()
			return fmt.Errorf("first GET after restart: %w", err)
		}
		if r < b.cfg.restarts-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	rs := summarize(recover)
	b.e2e("recover_s", "s", rs.Median, "SIGKILL -> restart -> first GET", &rs)

	if err := b.hook(srv.addr); err != nil {
		return err
	}
	ctl, err := b.dial(srv.addr)
	if err != nil {
		return err
	}
	st, err := fetchStats(ctl)
	ctl.Close()
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.res.Layer["server.read_index_rebuilt"] = st["paxserve_read_index_rebuilt"]
	}

	sweep, err := b.verifySweep(srv)
	if err != nil {
		return err
	}
	b.sweep = sweep
	return nil
}

// verifySweep GETs every key over one connection of pipelined callers and
// checks each holds its last acked value. On crash-recover it keeps cycling
// through the keys until cfg.seconds have passed: that read phase, the
// first reads a user makes after a crash, is the workload's measured GET
// phase.
func (b *bench) verifySweep(srv *child) (*window, error) {
	c, err := b.dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var next atomic.Int64
	n := int64(len(b.ks.acked))
	var until time.Time
	if b.cfg.workload == crashRecover {
		until = time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	}
	return b.measure(srv, 0, func(p *phase) ([]lane, []lane) {
		op := func(c kv, rec *recorder, _ *rand.Rand, _ []byte) bool {
			j := next.Add(1) - 1
			if j >= n && !time.Now().Before(until) {
				return false
			}
			i := int(j % n)
			tracing := p.tracing()
			t0 := time.Now()
			val, ok, err := c.Get(keyName(i))
			p.finish(rec, p.getName, t0, time.Now(), tracing)
			if err != nil {
				rec.errs++
				b.f.opError(err, "GET", i)
				return true
			}
			b.ks.verifyKey(&b.f, i, val, ok)
			return true
		}
		return nil, []lane{{c: c, callers: b.cfg.callers, op: op}}
	})
}

// opMetrics sets op's rate and latency metrics ("put" or "get") from the
// phase's samples, as medians over its time windows.
func (b *bench) opMetrics(op string, r opResult, length time.Duration, source string) {
	ws := windowStats(r.samples, length)
	all := summarize(nsTo(r.lat(false), 1e6))
	b.res.E2E[op+"_ops_s"] = &metric{Name: op + "_ops_s", Unit: "ops/s", Value: ws.rate.Median, Source: source, Windows: &ws.rate}
	b.res.E2E[op+"_p50_ms"] = &metric{Name: op + "_p50_ms", Unit: "ms", Value: ws.p50.Median, Source: source, Summary: &all, Windows: &ws.p50}
	b.res.E2E[op+"_p99_ms"] = &metric{Name: op + "_p99_ms", Unit: "ms", Value: ws.p99.Median, Source: source, Summary: &all, Windows: &ws.p99}
}

// cpuPerOp sets server_cpu_us_per_op from w: paxserve CPU time over the
// window per acked write or served GET.
func (b *bench) cpuPerOp(w *window, source string) {
	ops := delta(w.before, w.after, "paxserve_acked_writes") + delta(w.before, w.after, "paxserve_gets")
	if ops > 0 {
		b.e2e("server_cpu_us_per_op", "us", float64(w.cpuTicks)/clockTicksPerSec*1e6/ops, source, nil)
	}
}

// report turns the measured window into end-to-end metrics.
func (b *bench) report(srv *child, w *window) error {
	length := w.deadline.Sub(w.start)
	src := "measured phase"
	for _, op := range []struct {
		name string
		r    opResult
	}{{"put", w.put}, {"get", w.get}} {
		if op.r.ops() > 0 {
			b.opMetrics(op.name, op.r, length, src)
		} else {
			b.na(op.name+"_ops_s", "ops/s")
			b.na(op.name+"_p50_ms", "ms")
			b.na(op.name+"_p99_ms", "ms")
		}
	}
	acked := delta(w.before, w.after, "paxserve_acked_writes")
	userBytes := acked * (keyLen + valueLen)
	if userBytes > 0 {
		logBytes := delta(w.before, w.after, "pax_sync_bytes_total")
		b.e2e("write_amp", "ratio", logBytes/userBytes, "epoch-log appends / acked user bytes", nil)
	}
	peak, err := srv.statusMiB("VmHWM")
	if err != nil {
		return err
	}
	b.e2e("server_peak_rss_mb", "MiB", peak, "VmHWM", nil)
	return nil
}
