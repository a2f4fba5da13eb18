package benchkit

import (
	"fmt"
	"os"
	"time"

	"pax/internal/server"
	"pax/internal/stats"
)

// This file is the live-resharding experiment: run a zipfian-skewed shared
// keyspace against a file-backed sharded engine, measure the hot-shard
// collapse, split the hottest shard live, measure again, then crash and
// reopen to prove no acked write was lost. It is the end-to-end measurement
// of the slot router (internal/server/slotmap.go + migrate.go): acked ops/s
// should rise and the hot shard's ack tail should fall, with only
// ~moved-slots/256 of the keyspace migrating.

// SplitJSON is the split half of a reshard record: what moved and whether
// the crash check passed. It rides on the post-split LoadJSON record.
type SplitJSON struct {
	Source     int     `json:"source"`
	Dest       int     `json:"dest"`
	NewShard   bool    `json:"new_shard"`
	MovedSlots int     `json:"moved_slots"`
	MovedKeys  int     `json:"moved_keys"`
	MovedFrac  float64 `json:"moved_frac"` // MovedSlots / NumSlots
	SplitMS    float64 `json:"split_ms"`   // wall time of the live migration
	// CrashVerified is whether the post-split crash+reopen found every key
	// present with a current value; LostKeys counts the ones it did not (the
	// acceptance bar is 0).
	CrashVerified bool `json:"crash_verified"`
	LostKeys      int  `json:"lost_keys"`
}

// SplitResult is everything RunSplitLoad measured: the steady-state phase
// before the split, the phase after, and the split itself.
type SplitResult struct {
	Pre, Post LoadResult
	Split     SplitJSON
	Report    *server.SplitReport
}

// JSON renders the two phases as LoadJSON records tagged pre-split /
// post-split, with the split details attached to the post record — the shape
// BENCH_loadgen.json stores.
func (r SplitResult) JSON() []LoadJSON {
	pre := r.Pre.JSON()
	pre.Phase = "pre-split"
	post := r.Post.JSON()
	post.Phase = "post-split"
	split := r.Split
	post.Split = &split
	return []LoadJSON{pre, post}
}

// RunSplitLoad is the live-split A/B. One file-backed sharded engine serves
// a zipfian shared keyspace through three stages:
//
//  1. Preload, then a measured pre-split phase (spec as given).
//  2. Split: the engine picks its hottest shard from per-slot op counts and
//     migrates the hot half of its slots to a new shard — live, while no
//     client traffic is suspended except per-slot during each cutover.
//  3. A measured post-split phase (same spec, reseeded), then Crash (no
//     final commit), reopen from the discovered layout, and verify every
//     key of the keyspace is present — every pre-crash acked durable write
//     must have survived the migration.
//
// spec must be file-backed (PoolDir), shared-keyspace (Keys > 0), and
// multi-shard (Shards >= 2; bare layouts cannot split).
func RunSplitLoad(spec LoadSpec) (SplitResult, error) {
	var out SplitResult
	if err := checkReshardSpec(spec, "split"); err != nil {
		return out, err
	}
	h, err := openHarness(spec, 0)
	if err != nil {
		return out, err
	}
	defer h.close()
	if err := h.preload(); err != nil {
		return out, err
	}
	if out.Pre, err = h.measure(h.spec); err != nil {
		return out, err
	}

	splitStart := time.Now()
	rep, err := h.eng.Split(-1)
	if err != nil {
		return out, fmt.Errorf("benchkit: live split: %w", err)
	}
	out.Report = rep
	out.Split = SplitJSON{
		Source:     rep.Source,
		Dest:       rep.Dest,
		NewShard:   rep.NewShard,
		MovedSlots: len(rep.MovedSlots),
		MovedKeys:  rep.MovedKeys,
		MovedFrac:  float64(len(rep.MovedSlots)) / float64(server.NumSlots),
		SplitMS:    float64(time.Since(splitStart).Microseconds()) / 1e3,
	}

	if out.Post, err = h.measure(h.postSpec()); err != nil {
		return out, err
	}
	if _, out.Split.LostKeys, err = h.crashAndVerify(); err != nil {
		return out, err
	}
	out.Split.CrashVerified = out.Split.LostKeys == 0
	return out, nil
}

// Reshard is the experiment wrapper: a zipfian skew sweep (the recorded size
// of the hot-shard problem at increasing s) and the live-split A/B.
func Reshard(cfg Config, sz Sizes) []*stats.Table {
	ops := sz.MeasureOps / 30
	if ops < 40 {
		ops = 40
	}
	keys := sz.sweepKeys()
	if keys > 20_000 {
		keys = 20_000
	}

	skewTable := stats.NewTable("reshard: zipfian skew vs shard imbalance (4 shards, 64 clients, 2ms media commit)",
		"dist", "zipf s", "acked ops/s", "imbalance (max/mean)", "hot shard", "hot p99 ack ms", "p99 ack ms")
	type sweep struct {
		dist string
		s    float64
	}
	for _, sw := range []sweep{{"uniform", 0}, {"zipf", 1.1}, {"zipf", 1.2}, {"zipf", 1.5}} {
		res, err := RunLoad(LoadSpec{
			Clients:       64,
			OpsPerClient:  ops,
			ValueBytes:    64,
			ReadRatio:     0.5,
			RMWRatio:      0.25,
			Keys:          keys,
			Dist:          sw.dist,
			ZipfS:         sw.s,
			MaxBatch:      16,
			MaxDelay:      2 * time.Millisecond,
			Shards:        4,
			CommitLatency: 2 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("benchkit: reshard skew sweep (%s s=%v): %v", sw.dist, sw.s, err))
		}
		hotP99 := 0.0
		if res.HotShard < len(res.PerShard) {
			hotP99 = res.PerShard[res.HotShard].AckP99Micros / 1e3
		}
		skewTable.AddRowf(sw.dist, sw.s, res.OpsThroughput, res.ShardImbalance, res.HotShard,
			hotP99, float64(res.AckP99.Microseconds())/1e3)
	}

	dir, err := os.MkdirTemp("", "pax-reshard-*")
	if err != nil {
		panic(fmt.Sprintf("benchkit: reshard: %v", err))
	}
	defer os.RemoveAll(dir)
	sres, err := RunSplitLoad(LoadSpec{
		Clients:       64,
		OpsPerClient:  ops,
		ValueBytes:    64,
		ReadRatio:     0.5,
		Keys:          keys,
		Dist:          "zipf",
		ZipfS:         1.2,
		MaxBatch:      16,
		MaxDelay:      2 * time.Millisecond,
		Shards:        2,
		CommitLatency: 2 * time.Millisecond,
		PoolDir:       dir,
		// Delta commits keep the A/B about routing, not about full-image
		// republish IO (and keep the quick scale actually quick).
		EpochLog: true,
	})
	if err != nil {
		panic(fmt.Sprintf("benchkit: reshard split A/B: %v", err))
	}
	splitTable := stats.NewTable("reshard: live split A/B (zipf s=1.2, 2 shards -> 3, file-backed, 2ms media commit)",
		"phase", "shards", "acked ops/s", "imbalance", "hot p99 ack ms", "moved slots", "moved keys", "crash ok")
	hotP99 := func(r LoadResult) float64 {
		if r.HotShard < len(r.PerShard) {
			return r.PerShard[r.HotShard].AckP99Micros / 1e3
		}
		return 0
	}
	splitTable.AddRowf("pre-split", sres.Pre.Spec.Shards, sres.Pre.OpsThroughput, sres.Pre.ShardImbalance,
		hotP99(sres.Pre), "-", "-", "-")
	splitTable.AddRowf("post-split", sres.Post.Spec.Shards, sres.Post.OpsThroughput, sres.Post.ShardImbalance,
		hotP99(sres.Post), sres.Split.MovedSlots, sres.Split.MovedKeys, sres.Split.CrashVerified)
	return []*stats.Table{skewTable, splitTable}
}
