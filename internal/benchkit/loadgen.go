package benchkit

import (
	"errors"
	"fmt"
	"os"
	"time"

	"pax/internal/blackbox"
	"pax/internal/pmem"
	"pax/internal/server"
	"pax/internal/stats"
)

// This file is the serving-layer load generator: instead of driving a
// fixture single-threaded like the paper experiments, it stands up the
// paxserve group-commit engine over in-memory pools and hammers it with
// concurrent client goroutines, measuring how many individually-acked
// durable writes each snapshot amortizes — and, with Shards > 1, how
// partition-parallel group commit scales throughput.

// ErrInjectedFault is the media error LoadSpec.FailSyncsAfter injects. The
// chaos tests and the CI postmortem smoke grep for its message in the
// journaled seal event, so treat it as part of the harness contract.
var ErrInjectedFault = errors.New("injected media failure (loadgen chaos)")

// LoadSpec parameterizes one loadgen run.
type LoadSpec struct {
	Clients      int
	OpsPerClient int
	ValueBytes   int
	// GetEveryN issues a read after every N writes per client (0 disables).
	// Those reads ride on top of OpsPerClient writes; for a workload whose
	// op *mix* is controlled, use ReadRatio instead.
	GetEveryN int
	// ReadRatio is the fraction of each client's OpsPerClient ops issued as
	// GETs against that client's previously written keys (0 disables and
	// GetEveryN applies; 0.9 models a read-heavy serving tier). The
	// interleave is deterministic — an error-diffusion pattern, not a PRNG —
	// so runs are reproducible.
	ReadRatio float64
	MaxBatch  int
	MaxDelay  time.Duration
	// Shards partitions the keyspace across N independent pools, each with
	// its own writer loop and device, so N group commits run in parallel
	// (default 1 — the single-writer engine).
	Shards int
	// CommitLatency is the modeled per-group-commit media latency (see
	// server.Config.CommitLatency). With it set, a single engine is bound by
	// one commit in flight at a time and the shard sweep measures how
	// partition-parallel commit overlaps that latency; zero commits at
	// simulator speed, which benchmarks the host CPU rather than the
	// serving design.
	CommitLatency time.Duration
	// PoolDir, when non-empty, backs the engines with real pool files
	// created there (fresh layout per run) instead of in-memory devices.
	// File-backed runs are what the write-amplification sweeps need: the
	// bytes each commit pushes through the filesystem are the measurement.
	PoolDir string
	// DataSize overrides the per-shard vPM data region in bytes (default
	// 32 MiB). The pool-size sweep holds the workload fixed and grows this:
	// full-image commit cost scales with it, delta commit cost must not.
	DataSize uint64
	// EpochLog selects the log-structured delta epoch store for the pools
	// (pax.Options.EpochLog); false is the full-image baseline.
	EpochLog bool
	// MaxInflightCommits bounds the engine's commit pipeline (see
	// server.Config.MaxInflightCommits): 1 is the serial A/B baseline, 0
	// takes the engine default (2).
	MaxInflightCommits int
	// AckOnApply issues every write under server.AckApply: acked when
	// applied and read-index-visible, durability asynchronous. False is the
	// ack-on-durable default — every ack means the write's group commit
	// reached media.
	AckOnApply bool
	// Keys, when > 0, switches the run to a shared-keyspace workload: the
	// keyspace is Keys keys ("k%08d"), preloaded durable before the measured
	// phase, and every client samples the same space — reads and writes alike
	// — through the Dist sampler. 0 keeps the legacy per-client-private keys
	// (each client writes its own sequence and reads its own history), which
	// is what the pre-zipfian sweeps recorded. The shared keyspace is what
	// exposes hot-shard imbalance: private keys spread by construction.
	Keys uint64
	// Dist picks the shared-keyspace sampler: "uniform" (default) or "zipf"
	// (YCSB-style skew; ZipfS sets the exponent). Requires Keys > 0.
	Dist string
	// ZipfS is the zipfian exponent (s > 1; default 1.2). Higher is more
	// skewed: at s=1.2 over 100k keys, the hottest ~25 keys absorb a tenth
	// of the traffic, and whichever shard owns them becomes the bottleneck.
	ZipfS float64
	// RMWRatio is the fraction of write ops issued as read-modify-write —
	// Get then Put of the same sampled key, the YCSB-A update shape — instead
	// of a blind Put. Requires Keys > 0.
	RMWRatio float64
	// ValueDist sizes each written value: "fixed" (default, every value is
	// ValueBytes) or "uniform" (per-op size uniform in [1, ValueBytes]).
	// Requires Keys > 0.
	ValueDist string
	// Seed perturbs the samplers; runs with equal specs are identical, and
	// sweeps vary Seed to decorrelate. Each client derives its own stream.
	Seed int64
	// Blackbox attaches a crash black box (internal/blackbox) to the run:
	// lifecycle events and windowed metrics snapshots journal to
	// <PoolDir>/load.pool.blackbox/. Requires PoolDir (the journal is a
	// directory of files). The A/B against an identical spec without it is
	// the journaling-overhead bound.
	Blackbox bool
	// BlackboxInterval is the snapshot period (default 250ms — short, so
	// even sub-second runs capture a windowed sample).
	BlackboxInterval time.Duration
	// FailSyncsAfter, when > 0, injects a persistent media-sync fault into
	// shard 0 after that many successful syncs: every later persist fails,
	// commit retries exhaust, and the shard seals fail-stop mid-run. Client
	// errors are then expected (the client stops, the run continues), and
	// the run ends with Crash() instead of Close() — a simulated kill, so
	// what the black box captured is exactly what a postmortem would find.
	FailSyncsAfter int
}

// LoadResult summarizes a run.
type LoadResult struct {
	Spec         LoadSpec
	AckedWrites  uint64
	Gets         uint64
	GroupCommits uint64
	BatchMax     uint64
	// Amortization is acked writes per snapshot — the group-commit payoff.
	Amortization float64
	Wall         time.Duration
	Throughput   float64 // acked writes per wall second
	// OpsThroughput is total acked ops (writes + reads) per wall second —
	// the figure of merit for mixed read/write sweeps.
	OpsThroughput float64
	// AckP50/P95/P99 are client-observed per-write ack latency quantiles:
	// Put call to durable-ack return, so they include queue wait, the group-
	// commit window, the persist, and the modeled media latency — the
	// latency a serving client actually experiences, as opposed to the
	// server-side per-stage histograms in the metrics registry.
	AckP50, AckP95, AckP99 time.Duration
	// Metrics is the merged engine+pool metrics summary (per-shard gauges
	// carry a {shard="K"} suffix; plain names are cross-shard sums),
	// sampled at the end of the measured phase.
	Metrics stats.Summary
	// PoolBytes is the per-shard media size; EpochLog echoes which persist
	// mode the run used.
	PoolBytes int64
	EpochLog  bool
	// CommitP50Bytes/CommitP99Bytes are per-commit persisted-bytes quantiles
	// as the serving engine observed them (paxserve_epoch_delta_bytes, which
	// excludes the one-time pool-format sync): O(dirty) under the epoch
	// store, the pool size under full-image. They come from a log-bucketed
	// histogram, so each is the matching bucket's upper bound — up to ~3%
	// above the true value (a 50331648-byte full image reports as 51380223).
	// CommitMeanBytes has no such error: it is the histogram's exact
	// sum/count. WriteAmplification is CommitMeanBytes divided by the pool
	// size — the fraction of the pool each commit rewrites (1.0 for
	// full-image by construction).
	CommitP50Bytes     float64
	CommitP99Bytes     float64
	CommitMeanBytes    float64
	WriteAmplification float64
	// PerShard breaks the run down by shard (from the merged {shard="K"}
	// metrics): acked ops, queue pressure, and client-observed ack tail per
	// shard. ShardImbalance is max/mean per-shard acked ops — 1.0 is perfect
	// balance, and under zipfian skew it is the recorded size of the
	// hot-shard problem. HotShard is the argmax.
	PerShard       []ShardLoad
	ShardImbalance float64
	HotShard       int
}

// ShardLoad is one shard's share of a run.
type ShardLoad struct {
	Shard int `json:"shard"`
	// AckedOps is the shard's acked writes (durable + on-apply) plus served
	// GETs.
	AckedOps uint64 `json:"acked_ops"`
	// EnqueueWaitP99Micros is the shard's server-side enqueue-wait p99 — how
	// long requests sat blocked on a full queue, the first symptom of a hot
	// shard.
	EnqueueWaitP99Micros float64 `json:"enqueue_wait_p99_us"`
	// AckP99Micros is the client-observed per-write ack p99 for writes routed
	// to this shard.
	AckP99Micros float64 `json:"ack_p99_us"`
}

// LoadJSON is the machine-readable form of a LoadResult — what
// `paxbench -loadgen -format json` emits so the perf trajectory is tracked
// across PRs.
type LoadJSON struct {
	Shards          int     `json:"shards"`
	Clients         int     `json:"clients"`
	OpsPerClient    int     `json:"ops_per_client"`
	MaxBatch        int     `json:"max_batch"`
	CommitLatencyMS float64 `json:"commit_latency_ms"`
	ReadRatio       float64 `json:"read_ratio"`
	// AckPolicy is "durable" (acks mean on-media) or "apply" (acks mean
	// applied and read-index-visible, durability async);
	// MaxInflightCommits is the commit-pipeline window the run used (1 =
	// serial baseline).
	AckPolicy          string  `json:"ack_policy"`
	MaxInflightCommits int     `json:"max_inflight_commits"`
	AckedWrites        uint64  `json:"acked_writes"`
	Gets               uint64  `json:"gets"`
	Snapshots          uint64  `json:"snapshots"`
	BatchMax           uint64  `json:"batch_max"`
	Amortization       float64 `json:"amortization"`
	WallMillis         float64 `json:"wall_ms"`
	AckedWritesPerSec  float64 `json:"acked_writes_per_sec"`
	AckedOpsPerSec     float64 `json:"acked_ops_per_sec"`
	AckP50Micros       float64 `json:"ack_p50_us"`
	AckP95Micros       float64 `json:"ack_p95_us"`
	AckP99Micros       float64 `json:"ack_p99_us"`
	// Epoch-store A/B fields: which persist mode ran, the per-shard pool
	// size, per-commit persisted bytes, and the mean fraction of the pool
	// rewritten per commit. commit_p50_bytes/commit_p99_bytes are log-bucket
	// upper bounds (up to ~3% above the true value — a 48 MiB full image
	// reports 51380223, not 50331648); commit_mean_bytes is exact
	// (histogram sum/count), so use it when the absolute byte count
	// matters.
	EpochLog           bool    `json:"epoch_log"`
	PoolBytes          int64   `json:"pool_bytes"`
	CommitP50Bytes     float64 `json:"commit_p50_bytes"`
	CommitP99Bytes     float64 `json:"commit_p99_bytes"`
	CommitMeanBytes    float64 `json:"commit_mean_bytes"`
	WriteAmplification float64 `json:"write_amplification"`
	// Workload-shape fields: the key distribution ("uniform" | "zipf" over a
	// shared keyspace of Keys keys, or "private" for the legacy per-client
	// keys), its skew, the read-modify-write fraction, and the value sizing.
	Dist      string  `json:"dist"`
	ZipfS     float64 `json:"zipf_s"`
	Keys      uint64  `json:"keys"`
	RMWRatio  float64 `json:"rmw_ratio"`
	ValueDist string  `json:"value_dist"`
	// Imbalance fields: per-shard load breakdown, max/mean acked ops across
	// shards, and which shard was hottest.
	ShardImbalance float64     `json:"shard_imbalance"`
	HotShard       int         `json:"hot_shard"`
	PerShard       []ShardLoad `json:"per_shard,omitempty"`
	// Split-run fields, set only by the reshard experiment: which phase of a
	// live-split run this record measures ("pre-split" | "post-split") and,
	// on the post record, what the split moved and whether every pre-split
	// acked write survived a crash+reopen.
	Phase string     `json:"phase,omitempty"`
	Split *SplitJSON `json:"split,omitempty"`
	// Autopilot is set only by the autopilot experiment, on the
	// post-autosplit record: what the reshard policy did unprompted.
	Autopilot *AutopilotJSON `json:"autopilot,omitempty"`
	// Blackbox is whether the run journaled to a crash black box — the A/B
	// axis for the journaling-overhead bound. FailSyncsAfter echoes the
	// chaos fault injection (0 = healthy run).
	Blackbox       bool `json:"blackbox"`
	FailSyncsAfter int  `json:"fail_syncs_after,omitempty"`
}

// JSON converts the result to its machine-readable record.
func (r LoadResult) JSON() LoadJSON {
	shards := r.Spec.Shards
	if shards <= 0 {
		shards = 1
	}
	policy := "durable"
	if r.Spec.AckOnApply {
		policy = "apply"
	}
	inflight := r.Spec.MaxInflightCommits
	if inflight <= 0 {
		inflight = 2 // the engine default (server.Config.withDefaults)
	}
	dist := "private"
	zipfS := 0.0
	valueDist := ""
	if r.Spec.Keys > 0 {
		dist = r.Spec.Dist
		if dist == "" {
			dist = "uniform"
		}
		if dist == "zipf" {
			zipfS = r.Spec.ZipfS
			if zipfS == 0 {
				zipfS = defaultZipfS
			}
		}
		valueDist = r.Spec.ValueDist
		if valueDist == "" {
			valueDist = "fixed"
		}
	}
	return LoadJSON{
		Shards:             shards,
		Clients:            r.Spec.Clients,
		OpsPerClient:       r.Spec.OpsPerClient,
		MaxBatch:           r.Spec.MaxBatch,
		CommitLatencyMS:    float64(r.Spec.CommitLatency.Microseconds()) / 1e3,
		ReadRatio:          r.Spec.ReadRatio,
		AckPolicy:          policy,
		MaxInflightCommits: inflight,
		AckedWrites:        r.AckedWrites,
		Gets:               r.Gets,
		Snapshots:          r.GroupCommits,
		BatchMax:           r.BatchMax,
		Amortization:       r.Amortization,
		WallMillis:         float64(r.Wall.Microseconds()) / 1e3,
		AckedWritesPerSec:  r.Throughput,
		AckedOpsPerSec:     r.OpsThroughput,
		AckP50Micros:       float64(r.AckP50.Nanoseconds()) / 1e3,
		AckP95Micros:       float64(r.AckP95.Nanoseconds()) / 1e3,
		AckP99Micros:       float64(r.AckP99.Nanoseconds()) / 1e3,
		EpochLog:           r.EpochLog,
		PoolBytes:          r.PoolBytes,
		CommitP50Bytes:     r.CommitP50Bytes,
		CommitP99Bytes:     r.CommitP99Bytes,
		CommitMeanBytes:    r.CommitMeanBytes,
		WriteAmplification: r.WriteAmplification,
		Dist:               dist,
		ZipfS:              zipfS,
		Keys:               r.Spec.Keys,
		RMWRatio:           r.Spec.RMWRatio,
		ValueDist:          valueDist,
		ShardImbalance:     r.ShardImbalance,
		HotShard:           r.HotShard,
		PerShard:           r.PerShard,
		Blackbox:           r.Spec.Blackbox,
		FailSyncsAfter:     r.Spec.FailSyncsAfter,
	}
}

// RunLoad executes one loadgen run on fresh pools (one per shard) —
// in-memory by default, file-backed under spec.PoolDir: open, preload the
// shared keyspace (when Keys > 0), then one measured phase.
func RunLoad(spec LoadSpec) (LoadResult, error) {
	h, err := openHarness(spec, 0)
	if err != nil {
		return LoadResult{}, err
	}
	spec = h.spec
	stopBlackbox := func() error { return nil }
	if spec.Blackbox {
		if stopBlackbox, err = attachBlackbox(h.eng, h.path, spec.BlackboxInterval); err != nil {
			h.close()
			return LoadResult{}, err
		}
	}
	// The preload's own acks and commits are sampled out by the measured
	// phase, so the reported counters (and the per-shard imbalance) cover
	// only measured traffic.
	if spec.Keys > 0 {
		err = h.preload()
	}
	var res LoadResult
	if err == nil {
		chaos := spec.FailSyncsAfter > 0
		if chaos {
			// Injected after the preload so the fill always lands: shard 0's
			// device starts refusing media syncs partway through the measured
			// phase, its commit retries exhaust, and it seals fail-stop.
			h.eng.ShardPools()[0].Internal().PM().SetFaultFn(
				pmem.FailSyncsAfter(spec.FailSyncsAfter, ErrInjectedFault))
		}
		res, err = h.measure(spec)
		if chaos {
			// Simulated kill: no orderly close, no shutdown marker. Everything
			// a postmortem needs is already on disk — the journal fsyncs each
			// append — so the black box is read back exactly as a crash would
			// leave it (stopping the sampler below only adds the tail-window
			// snapshot, which a periodic tick would have written anyway). The
			// faulted shard's pool cannot sync, so Crash's error is expected.
			_ = h.crash()
		}
	}
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if berr := stopBlackbox(); err == nil {
		err = berr
	}
	if err != nil {
		return LoadResult{}, err
	}
	return res, nil
}

// attachBlackbox journals the fleet's lifecycle events and windowed metrics
// snapshots (every interval, default 250ms — short, so even sub-second runs
// capture a windowed sample) to <path>.blackbox/. The returned stop detaches
// the sampler, flushing its tail-window snapshot, and closes the journal.
func attachBlackbox(eng *server.ShardedEngine, path string, interval time.Duration) (stop func() error, err error) {
	j, err := blackbox.Open(blackbox.Config{Dir: path + blackbox.DirSuffix})
	if err != nil {
		return nil, fmt.Errorf("benchkit: blackbox: %w", err)
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	detach := server.AttachBlackbox(eng, j, interval)
	return func() error {
		detach()
		if err := j.Close(); err != nil {
			return fmt.Errorf("benchkit: blackbox close: %w", err)
		}
		return nil
	}, nil
}

// EpochStoreAmplification is the epoch-store A/B: the same fixed workload
// over growing file-backed pools, committed as full-image republishes vs as
// delta records. Full-image per-commit bytes track the pool size (write
// amplification 1.0 by construction); the delta store's stay O(dirty) —
// flat across the sweep — which is the property the epoch store exists to
// buy. The workload is deliberately small: the measurement is bytes per
// commit, not throughput, and the full-image side rewrites the whole pool
// every commit.
func EpochStoreAmplification(cfg Config, sz Sizes) []*stats.Table {
	poolMiB := []int{64, 128, 256}
	if sz.MeasureOps < 10_000 {
		poolMiB = []int{16, 32, 64} // quick scale: keep full-image I/O in check
	}
	table := stats.NewTable("epoch store: per-commit persisted bytes vs pool size (fixed workload, file-backed)",
		"mode", "pool MiB", "commits", "p50 KiB/commit", "p99 KiB/commit", "amplification", "writes/s")
	for _, epochLog := range []bool{false, true} {
		mode := "full-image"
		if epochLog {
			mode = "delta"
		}
		for _, mib := range poolMiB {
			dir, err := os.MkdirTemp("", "pax-epochstore-*")
			if err != nil {
				panic(fmt.Sprintf("benchkit: epoch-store sweep: %v", err))
			}
			res, err := RunLoad(LoadSpec{
				Clients:      8,
				OpsPerClient: 24,
				ValueBytes:   64,
				MaxBatch:     16,
				MaxDelay:     time.Millisecond,
				PoolDir:      dir,
				DataSize:     uint64(mib) << 20,
				EpochLog:     epochLog,
			})
			os.RemoveAll(dir)
			if err != nil {
				panic(fmt.Sprintf("benchkit: epoch-store sweep (%s, %d MiB): %v", mode, mib, err))
			}
			table.AddRowf(mode, mib, res.GroupCommits,
				res.CommitP50Bytes/1024, res.CommitP99Bytes/1024,
				res.WriteAmplification, res.Throughput)
		}
	}
	return []*stats.Table{table}
}

// Loadgen is the experiment wrapper: sweep client counts (amortization vs
// concurrency on one shard) and shard counts (throughput vs partition-
// parallel commit), reporting how group commit and sharding scale.
func Loadgen(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 20 {
		ops = 20
	}
	clientsTable := stats.NewTable("loadgen: group-commit serving vs client count",
		"clients", "acked writes", "snapshots", "writes/snapshot", "max batch", "wall ms", "writes/s")
	for _, clients := range []int{1, 4, 16, 64, 128} {
		res, err := RunLoad(LoadSpec{
			Clients:      clients,
			OpsPerClient: ops,
			ValueBytes:   64,
			GetEveryN:    4,
			MaxBatch:     128,
			MaxDelay:     2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d clients: %v", clients, err))
		}
		clientsTable.AddRowf(clients, res.AckedWrites, res.GroupCommits,
			res.Amortization, res.BatchMax,
			float64(res.Wall.Milliseconds()), res.Throughput)
	}

	// The shard sweep runs commit-latency-bound (MaxBatch < clients, 2ms
	// modeled media commit): a single pool then has exactly one commit in
	// flight at a time, and shards overlap theirs — the scaling the
	// tentpole exists to buy.
	shardsTable := stats.NewTable("loadgen: sharded serving vs shard count (256 clients, 2ms media commit)",
		"shards", "acked writes", "snapshots", "writes/snapshot", "wall ms", "writes/s", "speedup", "p99 ack ms")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := RunLoad(LoadSpec{
			Clients:       256,
			OpsPerClient:  ops,
			ValueBytes:    64,
			GetEveryN:     4,
			MaxBatch:      16,
			MaxDelay:      2 * time.Millisecond,
			Shards:        shards,
			CommitLatency: 2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: loadgen with %d shards: %v", shards, err))
		}
		if shards == 1 {
			base = res.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.Throughput / base
		}
		shardsTable.AddRowf(shards, res.AckedWrites, res.GroupCommits,
			res.Amortization, float64(res.Wall.Milliseconds()), res.Throughput, speedup,
			float64(res.AckP99.Microseconds())/1e3)
	}

	// The GET-heavy sweep serves 95% GETs from the volatile read index while
	// commit-latency-bound writes are in flight. The mix matches the recorded
	// BENCH_loadgen.json sweep, whose queued-read rows are the A/B against
	// the pre-index engine.
	readTable := stats.NewTable("loadgen: GET-heavy read path (read-ratio 0.95, 128 clients, 2ms media commit)",
		"shards", "acked writes", "gets", "wall ms", "ops/s")
	for _, shards := range []int{1, 4} {
		res, err := RunLoad(LoadSpec{
			Clients:       128,
			OpsPerClient:  ops * 2,
			ValueBytes:    64,
			ReadRatio:     0.95,
			MaxBatch:      16,
			MaxDelay:      2 * time.Millisecond,
			Shards:        shards,
			CommitLatency: 2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: GET-heavy loadgen (%d shards): %v", shards, err))
		}
		readTable.AddRowf(shards, res.AckedWrites, res.Gets,
			float64(res.Wall.Milliseconds()), res.OpsThroughput)
	}
	return []*stats.Table{clientsTable, shardsTable, readTable}
}

// Ackpipe is the commit-pipeline A/B: one shard, commit-latency-bound
// (MaxBatch < clients, 2ms modeled media commit), sweeping the pipeline
// window × ack policy. Under ack-on-durable, window 1 is the serial
// baseline — one commit in flight, one batch per 2ms — and deeper windows
// overlap successive commits' media time, so both throughput and the
// client-observed ack p50 should improve close to linearly until the
// batch supply runs out. Under ack-on-apply the ack latency decouples
// from media entirely (sub-millisecond p50 regardless of window); the
// window then only shapes how far durability lags the acks.
func Ackpipe(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 20 {
		ops = 20
	}
	table := stats.NewTable("ackpipe: commit pipeline window x ack policy (1 shard, 64 clients, 2ms media commit)",
		"ack policy", "window", "acked writes", "snapshots", "wall ms", "writes/s", "p50 ack ms", "p99 ack ms", "speedup")
	var base float64
	for _, apply := range []bool{false, true} {
		policy := "durable"
		if apply {
			policy = "apply"
		}
		for _, window := range []int{1, 2, 4} {
			res, err := RunLoad(LoadSpec{
				Clients:            64,
				OpsPerClient:       ops,
				ValueBytes:         64,
				GetEveryN:          4,
				MaxBatch:           16,
				MaxDelay:           2 * time.Millisecond,
				CommitLatency:      2 * time.Millisecond,
				MaxInflightCommits: window,
				AckOnApply:         apply,
			})
			if err != nil {
				panic(fmt.Sprintf("benchkit: ackpipe (%s, window %d): %v", policy, window, err))
			}
			if !apply && window == 1 {
				base = res.Throughput
			}
			speedup := 0.0
			if base > 0 {
				speedup = res.Throughput / base
			}
			table.AddRowf(policy, window, res.AckedWrites, res.GroupCommits,
				float64(res.Wall.Milliseconds()), res.Throughput,
				float64(res.AckP50.Microseconds())/1e3,
				float64(res.AckP99.Microseconds())/1e3, speedup)
		}
	}
	return []*stats.Table{table}
}
