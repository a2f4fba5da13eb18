package benchkit

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pax"
	"pax/internal/server"
	"pax/internal/stats"
	"pax/internal/workload"
)

// This file is the one loadgen harness every serving-layer run is built
// from: open a fleet from a LoadSpec, preload its shared keyspace, measure a
// phase by differencing counters before and after, and crash, reopen and
// verify every key. RunLoad is one measured phase; the split and autopilot
// runs are short phase sequences over the same harness.

// harness is one run's fleet: the open engine plus the settings it was
// opened with, so a crash-reopen runs with exactly the same pools and
// engine configuration as the measured phases.
type harness struct {
	spec  LoadSpec
	path  string // pool path; "" for in-memory pools
	opts  pax.Options
	cfg   server.Config
	value []byte // every write stores this value, or a prefix of it
	eng   *server.ShardedEngine
}

// openHarness validates spec and opens fresh pools for it, one per shard:
// in-memory by default, file-backed (reformatting any layout there) under
// spec.PoolDir. queueDepth sets the engines' request queue depth (0 takes
// the engine default).
func openHarness(spec LoadSpec, queueDepth int) (*harness, error) {
	spec, err := checkSpec(spec)
	if err != nil {
		return nil, err
	}
	h := &harness{
		spec: spec,
		opts: pax.Options{DataSize: 32 << 20, LogSize: 16 << 20, HBMSize: 16 << 20, EpochLog: spec.EpochLog},
		cfg: server.Config{
			MaxBatch:           spec.MaxBatch,
			MaxDelay:           spec.MaxDelay,
			QueueDepth:         queueDepth,
			CommitLatency:      spec.CommitLatency,
			MaxInflightCommits: spec.MaxInflightCommits,
		},
		value: make([]byte, spec.ValueBytes),
	}
	if spec.DataSize > 0 {
		h.opts.DataSize = spec.DataSize
	}
	if spec.PoolDir != "" {
		h.path = filepath.Join(spec.PoolDir, "load.pool")
	}
	for i := range h.value {
		h.value[i] = byte('a' + i%26)
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = 1
	}
	if err := h.open(shards, true); err != nil {
		return nil, err
	}
	return h, nil
}

// checkSpec rejects malformed specs and fills the defaults a run needs.
func checkSpec(spec LoadSpec) (LoadSpec, error) {
	if spec.Clients <= 0 || spec.OpsPerClient <= 0 {
		return spec, fmt.Errorf("benchkit: loadgen needs clients and ops, got %+v", spec)
	}
	if spec.ReadRatio < 0 || spec.ReadRatio >= 1 {
		return spec, fmt.Errorf("benchkit: read ratio %v must be in [0, 1)", spec.ReadRatio)
	}
	if spec.ValueBytes <= 0 {
		spec.ValueBytes = 64
	}
	if spec.Keys == 0 {
		if spec.Dist != "" || spec.ZipfS != 0 || spec.RMWRatio != 0 || spec.ValueDist != "" {
			return spec, fmt.Errorf("benchkit: Dist/ZipfS/RMWRatio/ValueDist shape the shared keyspace; set Keys > 0")
		}
	} else {
		switch spec.Dist {
		case "", "uniform", "zipf":
		default:
			return spec, fmt.Errorf("benchkit: key distribution %q (want uniform or zipf)", spec.Dist)
		}
		if spec.Dist == "zipf" && spec.ZipfS != 0 && spec.ZipfS <= 1 {
			return spec, fmt.Errorf("benchkit: zipf exponent %v must be > 1", spec.ZipfS)
		}
		if spec.RMWRatio < 0 || spec.RMWRatio > 1 {
			return spec, fmt.Errorf("benchkit: RMW ratio %v must be in [0, 1]", spec.RMWRatio)
		}
		switch spec.ValueDist {
		case "", "fixed", "uniform":
		default:
			return spec, fmt.Errorf("benchkit: value distribution %q (want fixed or uniform)", spec.ValueDist)
		}
	}
	if spec.Blackbox && spec.PoolDir == "" {
		return spec, fmt.Errorf("benchkit: Blackbox journals to a directory; set PoolDir")
	}
	return spec, nil
}

// checkReshardSpec is the extra precondition of the split and autopilot
// runs: they split a file-backed fleet over a shared keyspace and end with a
// crash check that every acked write survived.
func checkReshardSpec(spec LoadSpec, run string) error {
	if spec.PoolDir == "" || spec.Keys == 0 || spec.Shards < 2 {
		return fmt.Errorf("benchkit: %s load needs PoolDir, Keys > 0, and Shards >= 2, got %+v", run, spec)
	}
	if spec.AckOnApply {
		// Apply-acked writes are allowed to roll back, so the crash check's
		// assertion would be vacuous.
		return fmt.Errorf("benchkit: %s load measures durable acks; AckOnApply would make the crash check vacuous", run)
	}
	return nil
}

// open opens shards pools at h.path: fresh ones when fresh, else the layout
// a crash left there.
func (h *harness) open(shards int, fresh bool) error {
	opts := h.opts
	opts.Overwrite = fresh && h.path != ""
	eng, err := server.OpenSharded(h.path, shards, opts, 0, h.cfg)
	if err != nil {
		return err
	}
	h.eng = eng
	return nil
}

// close closes the open fleet, if any.
func (h *harness) close() error {
	if h.eng == nil {
		return nil
	}
	err := h.eng.Close()
	h.eng = nil
	return err
}

// crash stops the fleet without a final commit, like a killed process.
func (h *harness) crash() error {
	err := h.eng.Crash()
	h.eng = nil
	return err
}

// preload writes the whole shared keyspace before the measured phase:
// ack-on-apply puts fanned across the clients' worth of goroutines, then one
// forced commit per shard so the preload is durable and the measured phase
// starts from a clean epoch.
func (h *harness) preload() error {
	loaders := h.spec.Clients
	if loaders > 64 {
		loaders = 64
	}
	keys := h.spec.Keys
	per := (keys + uint64(loaders) - 1) / uint64(loaders)
	errs := make(chan error, loaders)
	var wg sync.WaitGroup
	for c := 0; c < loaders; c++ {
		lo, hi := uint64(c)*per, uint64(c+1)*per
		if hi > keys {
			hi = keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if _, err := h.eng.PutPolicy(sharedKey(i), h.value, server.AckApply); err != nil {
					errs <- fmt.Errorf("benchkit: preloading key %d: %w", i, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	_, err := h.eng.Persist()
	return err
}

// measure runs one phase of spec's clients against the open fleet and
// reports only that phase's traffic: counters, per-shard acked ops and the
// commit-bytes mean are differenced between samples taken before and after
// the phase (the `_sum`/`_count` pair gives an exact mean). Quantiles stay
// cumulative — histograms cannot be differenced — so the registry's
// latency and commit-bytes quantiles include earlier phases and any
// preload, while the client-side ack histograms start at zero.
func (h *harness) measure(spec LoadSpec) (LoadResult, error) {
	before, err := h.eng.Metrics()
	if err != nil {
		return LoadResult{}, err
	}
	aggBefore := h.eng.AggregateStats()
	policy := server.AckDurable
	if spec.AckOnApply {
		policy = server.AckApply
	}
	client := runPrivateClient
	if spec.Keys > 0 {
		client = runSharedClient
	}
	// shardAck splits the client-observed ack latency by the shard that
	// served the write (routed via the engine's own ShardFor at issue time):
	// the hot shard's tail is the split runs' before/after number.
	shardAck := make([]stats.LatencyHistogram, h.eng.NumShards())
	var ackLat stats.LatencyHistogram // shared; it is lock-free by design
	errs := make(chan error, spec.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(h.eng, spec, c, h.value, policy, &ackLat, shardAck, errs)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return LoadResult{}, err
	default:
	}
	after, err := h.eng.Metrics()
	if err != nil {
		return LoadResult{}, err
	}
	agg := h.eng.AggregateStats()

	ack := ackLat.Snapshot()
	// Durable runs count acks at commit time (AckedWrites); apply runs count
	// them at apply time (AckedOnApply). Either way it is one ack per write.
	res := LoadResult{
		Spec:           spec,
		AckedWrites:    (agg.AckedWrites + agg.AckedOnApply) - (aggBefore.AckedWrites + aggBefore.AckedOnApply),
		Gets:           agg.Gets - aggBefore.Gets,
		GroupCommits:   agg.GroupCommits - aggBefore.GroupCommits,
		BatchMax:       agg.BatchMax,
		Wall:           wall,
		Metrics:        after,
		AckP50:         time.Duration(ack.Quantile(0.50)),
		AckP95:         time.Duration(ack.Quantile(0.95)),
		AckP99:         time.Duration(ack.Quantile(0.99)),
		PoolBytes:      int64(h.eng.MediaSize()),
		EpochLog:       h.eng.EpochLogEnabled(),
		CommitP50Bytes: after[`paxserve_epoch_delta_bytes{q="p50"}`],
		CommitP99Bytes: after[`paxserve_epoch_delta_bytes{q="p99"}`],
	}
	if res.GroupCommits > 0 {
		res.Amortization = float64(res.AckedWrites) / float64(res.GroupCommits)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	if n := delta("paxserve_epoch_delta_bytes_count"); n > 0 {
		res.CommitMeanBytes = delta("paxserve_epoch_delta_bytes_sum") / n
		if res.PoolBytes > 0 {
			res.WriteAmplification = res.CommitMeanBytes / float64(res.PoolBytes)
		}
	}
	if wall > 0 {
		res.Throughput = float64(res.AckedWrites) / wall.Seconds()
		res.OpsThroughput = float64(res.AckedWrites+res.Gets) / wall.Seconds()
	}
	res.PerShard, res.ShardImbalance, res.HotShard = perShardLoads(before, after, shardAck)
	return res, nil
}

// perShardLoads folds the merged {shard="K"} metrics sampled before and
// after a phase, plus the client-side per-shard ack histograms, into the
// per-shard breakdown and its imbalance summary (max/mean acked ops; 1.0 =
// perfectly balanced).
func perShardLoads(before, after stats.Summary, shardAck []stats.LatencyHistogram) ([]ShardLoad, float64, int) {
	loads := make([]ShardLoad, len(shardAck))
	var sum, max float64
	hot := 0
	for k := range loads {
		shard := strconv.Quote(strconv.Itoa(k))
		acked := 0.0
		for _, name := range []string{"paxserve_acked_writes", "paxserve_acked_on_apply", "paxserve_gets"} {
			acked += after[name+"{shard="+shard+"}"] - before[name+"{shard="+shard+"}"]
		}
		snap := shardAck[k].Snapshot()
		loads[k] = ShardLoad{
			Shard:                k,
			AckedOps:             uint64(acked),
			EnqueueWaitP99Micros: after[`paxserve_enqueue_wait_ns{q="p99",shard=`+shard+`}`] / 1e3,
			AckP99Micros:         float64(snap.Quantile(0.99)) / 1e3,
		}
		sum += acked
		if acked > max {
			max, hot = acked, k
		}
	}
	imbalance := 0.0
	if sum > 0 {
		imbalance = max / (sum / float64(len(loads)))
	}
	return loads, imbalance, hot
}

// postSpec is the spec of the phase after a fleet change: reseeded, so the
// phase draws a fresh sample of the same distribution rather than replaying
// identical key sequences against warm state, and recording the fleet size
// it ran on.
func (h *harness) postSpec() LoadSpec {
	post := h.spec
	post.Seed += 7919
	post.Shards = h.eng.NumShards()
	return post
}

// crashAndVerify crashes the fleet (no final commit), reopens the layout it
// left on disk with the run's settings, and reads back every key of the
// shared keyspace: the preload was durable and every measured write was
// acked durable, so a miss is a lost acked write. It returns the reopened
// shard count and the number of keys lost.
func (h *harness) crashAndVerify() (shards, lost int, err error) {
	if err := h.crash(); err != nil {
		return 0, 0, fmt.Errorf("benchkit: crash: %w", err)
	}
	if shards, err = server.DiscoverShards(h.path); err != nil {
		return 0, 0, fmt.Errorf("benchkit: rediscovering layout: %w", err)
	}
	if err := h.open(shards, false); err != nil {
		return 0, 0, fmt.Errorf("benchkit: reopening after crash: %w", err)
	}
	for i := uint64(0); i < h.spec.Keys; i++ {
		if _, ok, err := h.eng.Get(sharedKey(i)); err != nil || !ok {
			lost++
		}
	}
	return shards, lost, h.close()
}

// defaultZipfS is the zipfian exponent used when Dist is "zipf" and ZipfS is
// unset — skewed enough that one shard's slots clearly dominate, mild enough
// that every shard still sees traffic (the YCSB constant is 0.99 for its
// scrambled variant; rand.Zipf's unscrambled form wants s > 1).
const defaultZipfS = 1.2

// sharedKey names key i of the shared keyspace.
func sharedKey(i uint64) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// keySampler is what the shared-keyspace clients draw from (workload.Zipf or
// workload.Uniform).
type keySampler interface{ Next() uint64 }

// runPrivateClient is one measured-phase client over per-client private
// keys: client c writes its own key sequence and reads back its own history.
// ReadRatio of its ops are GETs of a previously written key; with ReadRatio
// 0 and GetEveryN set, every Nth write is read back instead.
func runPrivateClient(eng *server.ShardedEngine, spec LoadSpec, c int, value []byte, policy server.AckPolicy, ackLat *stats.LatencyHistogram, shardAck []stats.LatencyHistogram, errs chan<- error) {
	var (
		acc   float64                            // error-diffusion accumulator for the read/write mix
		wrote int                                // keys this client has written so far
		rng   = uint32(2654435761 * uint64(c+1)) // per-client LCG state
	)
	// Under fault injection (FailSyncsAfter) errors are the experiment: the
	// sealed shard refuses this client's ops, so it stops quietly.
	chaos := spec.FailSyncsAfter > 0
	for op := 0; op < spec.OpsPerClient; op++ {
		acc += spec.ReadRatio
		if acc >= 1 && wrote > 0 {
			acc--
			// Read a previously written key (LCG pick, deterministic per
			// client): hits the read path with realistic reuse.
			rng = rng*1664525 + 1013904223
			key := []byte(fmt.Sprintf("c%04d-%06d", c, int(rng)%wrote))
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if !chaos {
					errs <- fmt.Errorf("client %d read %s: ok=%v err=%v", c, key, ok, err)
				}
				return
			}
			continue
		}
		key := []byte(fmt.Sprintf("c%04d-%06d", c, wrote))
		wrote++
		shard := eng.ShardFor(key)
		t0 := time.Now()
		if _, err := eng.PutPolicy(key, value, policy); err != nil {
			if !chaos {
				errs <- fmt.Errorf("client %d op %d: %w", c, op, err)
			}
			return
		}
		d := time.Since(t0).Nanoseconds()
		ackLat.Observe(d)
		shardAck[shard].Observe(d)
		if spec.ReadRatio == 0 && spec.GetEveryN > 0 && op%spec.GetEveryN == spec.GetEveryN-1 {
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if !chaos {
					errs <- fmt.Errorf("client %d read-back %s: ok=%v err=%v", c, key, ok, err)
				}
				return
			}
		}
	}
}

// runSharedClient is one measured-phase client of the shared-keyspace mode:
// reads and writes both draw keys from the same sampler (read skew matches
// write skew — a hot key is hot on both paths), RMWRatio of the writes are
// read-modify-writes (the ack time then includes the read), and ValueDist
// sizes each value.
func runSharedClient(eng *server.ShardedEngine, spec LoadSpec, c int, value []byte, policy server.AckPolicy, ackLat *stats.LatencyHistogram, shardAck []stats.LatencyHistogram, errs chan<- error) {
	seed := spec.Seed*1_000_003 + int64(c)*2_654_435_761 + 1
	var sampler keySampler
	if spec.Dist == "zipf" {
		s := spec.ZipfS
		if s == 0 {
			s = defaultZipfS
		}
		sampler = workload.NewZipf(spec.Keys, s, seed)
	} else {
		sampler = workload.NewUniform(spec.Keys, seed)
	}
	var (
		readAcc, rmwAcc float64 // error-diffusion accumulators, deterministic per client
		rng             = uint32(2654435761 * uint64(c+1))
	)
	// Under fault injection (FailSyncsAfter) errors are the experiment:
	// the sealed shard refuses this client's ops, so it stops quietly.
	chaos := spec.FailSyncsAfter > 0
	for op := 0; op < spec.OpsPerClient; op++ {
		readAcc += spec.ReadRatio
		if readAcc >= 1 {
			readAcc--
			key := sharedKey(sampler.Next())
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if !chaos {
					errs <- fmt.Errorf("client %d read %s: ok=%v err=%v", c, key, ok, err)
				}
				return
			}
			continue
		}
		key := sharedKey(sampler.Next())
		v := value
		if spec.ValueDist == "uniform" {
			rng = rng*1664525 + 1013904223
			v = value[:1+int(rng%uint32(len(value)))]
		}
		rmw := false
		if rmwAcc += spec.RMWRatio; rmwAcc >= 1 {
			rmwAcc--
			rmw = true
		}
		shard := eng.ShardFor(key)
		t0 := time.Now()
		if rmw {
			if _, ok, err := eng.Get(key); err != nil || !ok {
				if !chaos {
					errs <- fmt.Errorf("client %d rmw-read %s: ok=%v err=%v", c, key, ok, err)
				}
				return
			}
		}
		if _, err := eng.PutPolicy(key, v, policy); err != nil {
			if !chaos {
				errs <- fmt.Errorf("client %d op %d: %w", c, op, err)
			}
			return
		}
		d := time.Since(t0).Nanoseconds()
		ackLat.Observe(d)
		shardAck[shard].Observe(d)
	}
}
