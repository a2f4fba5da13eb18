package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"pax"
	"pax/internal/epochlog"
	"pax/internal/server"
)

// probeOptions matches paxserve's default pool flags.
func probeOptions() pax.Options {
	o := pax.DefaultOptions()
	o.EpochLog = true
	return o
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// probes times the benchmark's own calls into each layer's public
// functions, in this process, on copies of the crashed pool: pax.OpenPool
// per shard, pax.Map.Put and pax.Pool.Persist on a shard's map,
// epochlog.Store.Append of the measured mean record size, and
// server.OpenSharded followed by the workload's op stream without TCP.
func (b *bench) probes(w *window) error {
	// The TCP server is down by now: give the in-process engine the cores
	// paxserve had.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	acked := delta(w.before, w.after, "paxserve_acked_writes")
	batch := int(math.Max(1, math.Round(div(acked, delta(w.before, w.after, "paxserve_group_commits")))))
	syncBytes := div(delta(w.before, w.after, "pax_sync_bytes_total"), delta(w.before, w.after, "pax_sync_ns_count"))
	if err := b.probePool(batch); err != nil {
		return err
	}
	if err := b.probeAppend(int64(syncBytes)); err != nil {
		return err
	}
	return b.probeEngine()
}

// probePool opens each shard of the crashed copy with pax.OpenPool, then
// runs batches of pax.Map.Put followed by one pax.Pool.Persist on shard 0:
// overwrites of its keys, or fresh inserts on crash-recover.
func (b *bench) probePool(batch int) error {
	path := filepath.Join(b.dir, "probe-open", "kv.pool")
	var pools []*pax.Pool
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for k := 0; k < 2; k++ {
		var p *pax.Pool
		err := b.tr.timed("core.open", 0, func() (err error) {
			p, err = pax.OpenPool(server.ShardPath(path, 2, k), probeOptions())
			return err
		})
		if err != nil {
			return fmt.Errorf("probe: opening shard %d: %w", k, err)
		}
		pools = append(pools, p)
	}
	m, err := pax.NewMap(pools[0], 0)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var keys [][]byte
	if b.cfg.workload != crashRecover {
		m.ForEach(func(k, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
	}
	r := rngFor(b.cfg.seed, 9, 0)
	val := make([]byte, valueLen)
	fresh := 0
	end := time.Now().Add(b.cfg.probe)
	for n := 0; n < 10 || time.Now().Before(end); n++ {
		id := b.tr.ids.Add(1)
		start := time.Now()
		for j := 0; j < batch; j++ {
			var key []byte
			if len(keys) > 0 {
				key = keys[r.Intn(len(keys))]
			} else {
				key = []byte(fmt.Sprintf("probe%05d", fresh))
				fresh++
			}
			encodeValue(val, r.Intn(b.cfg.keys), 1)
			if err := b.tr.timed("structures.map_put", id, func() error { return m.Put(key, val) }); err != nil {
				return fmt.Errorf("probe: Map.Put: %w", err)
			}
		}
		if err := b.tr.timed("core.persist", id, func() error {
			_, err := pools[0].Persist()
			return err
		}); err != nil {
			return fmt.Errorf("probe: Persist: %w", err)
		}
		s := b.tr.span("core.batch", start, time.Now(), 0, 0)
		s.id = id
		b.tr.add(s)
	}
	return nil
}

// probeAppend appends records of the measured mean delta size to a fresh
// epoch store: this host's append+fsync floor.
func (b *bench) probeAppend(size int64) error {
	st, err := epochlog.Open(epochlog.Config{Dir: filepath.Join(b.dir, "probe-append")})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	n := size - epochlog.RecordSize([]epochlog.Range{{}})
	ranges := []epochlog.Range{{Addr: 4096, Data: make([]byte, max(n, 64))}}
	end := time.Now().Add(b.cfg.probe)
	for epoch := uint64(1); epoch <= 10 || time.Now().Before(end); epoch++ {
		if err := b.tr.timed("epochlog.append", 0, func() error {
			_, err := st.Append(epoch, ranges)
			return err
		}); err != nil {
			st.Close()
			return fmt.Errorf("probe: Append: %w", err)
		}
	}
	return st.Close()
}

// probeEngine opens the second crashed copy with server.OpenSharded and
// drives the workload's PUT stream, then its GET stream (uniform GETs when
// it has none), straight into it, so engine spans pair with the wire spans
// of the TCP run.
func (b *bench) probeEngine() error {
	path := filepath.Join(b.dir, "probe-engine", "kv.pool")
	var eng *server.ShardedEngine
	err := b.tr.timed("server.open", 0, func() (err error) {
		eng, err = server.OpenSharded(path, 2, probeOptions(), 0, server.Config{})
		return err
	})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer eng.Close()
	phaseRun := func(build func(p *phase) (puts, gets []lane)) {
		p := newPhase(b.ks, &b.f, b.tr, time.Now().Add(b.cfg.probe))
		p.traceAll, p.putName, p.getName = true, "server.engine_put", "server.engine_get"
		puts, gets := build(p)
		r := combine(drive(b.cfg.seed, append(puts, gets...))...)
		b.tr.add(r.spans...)
		b.attempt.Add(int64(r.ops()))
	}
	// PUTs and GETs run one after the other: in-process, nothing paces
	// the GET callers the way a network round trip does, and run together
	// they would starve the commit pipeline of CPU.
	phaseRun(func(p *phase) ([]lane, []lane) {
		puts, _ := b.streams(p, [2]kv{eng, eng})
		return puts, nil
	})
	phaseRun(func(p *phase) ([]lane, []lane) {
		if _, gets := b.streams(p, [2]kv{eng, eng}); len(gets) > 0 {
			return nil, gets
		}
		return nil, []lane{{c: eng, callers: b.cfg.callers, op: getOp(p, b.uniform)}}
	})
	return nil
}

// layers derives the per-layer metrics: client spans, in-process probe
// spans, and the server's counters diffed over the measured window (the
// verify sweep's window for read-path counters when the measured phase has
// no GETs).
func (b *bench) layers(w *window) {
	L := b.res.Layer
	d := func(n string) float64 { return delta(w.before, w.after, n) }
	mean := func(h string) float64 { return meanDelta(w.before, w.after, h) }
	secs := w.deadline.Sub(w.start).Seconds()
	acked := d("paxserve_acked_writes")
	gw := w
	if w.get.ops() == 0 {
		gw = b.sweep
	}

	// wire
	putS := summarize(nsTo(w.put.lat(true), 1))
	getS := summarize(nsTo(gw.get.lat(true), 1))
	L["wire.put_ns.p50"], L["wire.put_ns.p99"] = putS.Median, putS.P99
	L["wire.get_ns.p50"], L["wire.get_ns.p99"] = getS.Median, getS.P99
	L["wire.busy"] = float64(b.f.busy.Load())
	L["wire.errors"] = float64(b.f.errs.Load())
	hit := meanDelta(gw.before, gw.after, "paxserve_get_hit_ns")
	L["wire.front_door_get_ns.mean"] = meanNS(gw.get.lat(true)) - hit

	// server: the in-process engine, the commit pipeline, the read path
	engPut := summarize(nsTo(b.tr.durations("server.engine_put"), 1))
	engGet := summarize(nsTo(b.tr.durations("server.engine_get"), 1))
	L["server.engine_put_ns.p50"] = engPut.Median
	L["server.engine_get_ns.p50"] = engGet.Median
	L["wire.self_put_ns.p50"] = putS.Median - engPut.Median
	L["wire.self_get_ns.p50"] = getS.Median - engGet.Median
	stages := map[string]string{
		"server.enqueue_wait_ns.mean":   "paxserve_enqueue_wait_ns",
		"server.batch_seal_ns.mean":     "paxserve_batch_seal_ns",
		"server.commit_persist_ns.mean": "paxserve_commit_persist_ns",
		"server.commit_ack_ns.mean":     "paxserve_commit_ack_ns",
		"server.commit_ns.mean":         "paxserve_commit_ns",
		"device.persist_ns.mean":        "pax_persist_device_ns",
		"pmem.sync_ns.mean":             "pax_sync_ns",
		"pmem.sync_append_ns.mean":      "pax_sync_append_ns",
	}
	for name, hist := range stages {
		L[name] = mean(hist)
	}
	L["server.pipeline_stall_frac"] = div(d("paxserve_pipeline_stall_ns_sum"), secs*1e9*2)
	L["server.group_commits"] = d("paxserve_group_commits")
	L["server.batch_mean"] = div(acked, d("paxserve_group_commits"))
	L["server.queue_rejects"] = d("paxserve_queue_rejects")
	L["server.commit_retries"] = d("paxserve_commit_retries")
	L["server.commit_failures"] = d("paxserve_commit_failures")
	unaccounted := meanNS(w.put.lat(true)) - L["server.enqueue_wait_ns.mean"] - L["server.batch_seal_ns.mean"] -
		L["server.commit_persist_ns.mean"] - L["server.commit_ack_ns.mean"]
	L["server.unaccounted_put_ns.mean"] = unaccounted
	if unaccounted < 0 {
		b.warn("server.unaccounted_put_ns.mean = %.0f < 0: a stage histogram mixes modeled time or double-counts", unaccounted)
	}
	if L["wire.front_door_get_ns.mean"] < 0 {
		b.warn("wire.front_door_get_ns.mean = %.0f < 0: paxserve_get_hit_ns mixes modeled time or double-counts", L["wire.front_door_get_ns.mean"])
	}
	L["server.get_hit_ns.mean"] = hit
	L["server.read_index_hits"] = delta(gw.before, gw.after, "paxserve_read_index_hits")
	L["server.read_index_misses"] = delta(gw.before, gw.after, "paxserve_read_index_misses")
	var loads []float64
	var total float64
	for k := 0; k < 2; k++ {
		l := d(fmt.Sprintf(`paxserve_acked_writes{shard="%d"}`, k)) + d(fmt.Sprintf(`paxserve_gets{shard="%d"}`, k))
		loads = append(loads, l)
		total += l
	}
	L["server.shard_imbalance"] = div(math.Max(loads[0], loads[1]), total/2)

	// structures / cache
	L["structures.map_put_ns.mean"] = meanNS(b.tr.durations("structures.map_put"))
	L["cache.llc_misses_per_write"] = div(d("pax_host_llc_misses"), acked)
	L["cache.upgrades_per_write"] = div(d("pax_host_upgrades"), acked)
	L["cache.writebacks_per_write"] = div(d("pax_host_writebacks"), acked)

	// device / undolog / hbm
	L["device.lines_per_persist"] = div(d("pax_device_lines_written"), d("pax_device_persists"))
	L["hbm.hit_ratio"] = div(d("pax_device_hbm_hits"), d("pax_device_hbm_hits")+d("pax_device_hbm_misses"))
	L["undolog.appends_per_write"] = div(d("pax_log_appends_total"), acked)
	L["undolog.peak_live"] = w.after["pax_log_peak_live"]

	// core
	persist := summarize(nsTo(b.tr.durations("core.persist"), 1))
	L["core.persist_ns.p50"], L["core.persist_ns.p99"] = persist.Median, persist.P99
	L["core.open_ns"] = meanNS(b.tr.durations("core.open"))
	L["core.batch_self_ns.mean"] = meanNS(b.tr.selfTimes("core.batch"))

	// pmem / epochlog
	L["pmem.sync_bytes.mean"] = div(d("pax_sync_bytes_total"), d("pax_sync_ns_count"))
	L["epochlog.checkpoints"] = d("pax_epoch_checkpoints_total")
	L["epochlog.checkpoint_bytes"] = d("pax_epoch_checkpoint_bytes_total")
	L["epochlog.checkpoint_failures"] = d("pax_epoch_checkpoint_failures_total")
	app := summarize(nsTo(b.tr.durations("epochlog.append"), 1))
	L["epochlog.append_ns.p50"], L["epochlog.append_ns.p99"] = app.Median, app.P99

	// recovery (replay counts and read_index_rebuilt are set at restart)
	L["server.open_ns"] = meanNS(b.tr.durations("server.open"))

	// Tracing overhead on the workload's main op: traced vs untraced p50
	// from the alternating windows of the same phase.
	main := w.put
	if mainOp(b.cfg.workload) == "get" {
		main = gw.get
	}
	traced := summarize(nsTo(main.lat(true), 1))
	plain := summarize(nsTo(main.lat(false), 1))
	L["trace.overhead_frac"] = div(traced.Median, plain.Median) - 1
}
