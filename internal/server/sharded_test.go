package server

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pax/internal/wire"
)

func newSharded(t *testing.T, path string, shards int, cfg Config) *ShardedEngine {
	t.Helper()
	eng, err := OpenSharded(path, shards, smallOpts(), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestShardPathLayout(t *testing.T) {
	if got := ShardPath("/d/kv.pool", 1, 0); got != "/d/kv.pool" {
		t.Fatalf("1-shard path = %q, want the bare path", got)
	}
	if got := ShardPath("/d/kv.pool", 4, 2); got != "/d/kv.pool.shard-2" {
		t.Fatalf("shard path = %q", got)
	}
	if got := ShardPath("", 4, 2); got != "" {
		t.Fatalf("in-memory shard path = %q, want empty", got)
	}
}

func TestDiscoverShards(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	touch := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if n, err := DiscoverShards(pool); n != 0 || err != nil {
		t.Fatalf("empty dir: %d %v", n, err)
	}
	touch(pool + ".shard-0")
	touch(pool + ".shard-1")
	touch(pool + ".shard-2")
	if n, err := DiscoverShards(pool); n != 3 || err != nil {
		t.Fatalf("3 shard files: %d %v", n, err)
	}
	// A gap in the sequence is refused, not guessed at.
	if err := os.Remove(pool + ".shard-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverShards(pool); err == nil {
		t.Fatal("gap in shard files not detected")
	}
	touch(pool + ".shard-1")
	// Both layouts at once is corruption.
	touch(pool)
	if _, err := DiscoverShards(pool); err == nil {
		t.Fatal("bare file alongside shard files not detected")
	}
	for k := 0; k < 3; k++ {
		if err := os.Remove(fmt.Sprintf("%s.shard-%d", pool, k)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := DiscoverShards(pool); n != 1 || err != nil {
		t.Fatalf("bare file: %d %v", n, err)
	}
}

// A crash mid-Sync leaves <shard>.tmp staging files behind; discovery must
// count shards past them instead of refusing the layout as unrecognized.
func TestDiscoverShardsIgnoresStaleTemps(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	touch := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	touch(pool + ".shard-0")
	touch(pool + ".shard-1")
	touch(pool + ".shard-0.tmp")
	if n, err := DiscoverShards(pool); n != 2 || err != nil {
		t.Fatalf("2 shards + stale temp: %d %v", n, err)
	}
	// Only litter, no shards: nothing to discover.
	if err := os.Remove(pool + ".shard-0"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(pool + ".shard-1"); err != nil {
		t.Fatal(err)
	}
	if n, err := DiscoverShards(pool); n != 0 || err != nil {
		t.Fatalf("temp only: %d %v", n, err)
	}
}

func TestShardedBasicOpsAndMergedStats(t *testing.T) {
	eng := newSharded(t, "", 4, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	defer eng.Close()

	const keys = 64
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		if _, err := eng.Put(key, append([]byte("val-"), key...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		v, ok, err := eng.Get(key)
		if err != nil || !ok || !bytes.Equal(v, append([]byte("val-"), key...)) {
			t.Fatalf("get %s: %q ok=%v err=%v", key, v, ok, err)
		}
	}
	if found, _, err := eng.Delete([]byte("key-000")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := eng.Get([]byte("key-000")); ok {
		t.Fatal("deleted key still visible")
	}
	if ep, err := eng.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist: %d %v", ep, err)
	}

	// Uniform keys should touch every shard.
	agg := eng.AggregateStats()
	if agg.AckedWrites != keys+1 {
		t.Fatalf("acked writes = %d, want %d", agg.AckedWrites, keys+1)
	}
	text, err := eng.StatsText()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		label := fmt.Sprintf("paxserve_acked_writes{shard=%q}", fmt.Sprint(k))
		if !strings.Contains(text, label) {
			t.Fatalf("stats missing per-shard metric %s:\n%s", label, text)
		}
	}
	for _, name := range []string{"paxserve_shards 4", "paxserve_acked_writes 65"} {
		if !strings.Contains(text, name) {
			t.Fatalf("stats missing aggregate %q:\n%s", name, text)
		}
	}
}

// TestShardedCrashRecovery is the acceptance-criteria test: kill the engine
// mid-load with N>1 shards, reopen the same files, and check both directions
// of the durability contract — every acked write survives, every write that
// failed with the crash rolled back.
func TestShardedCrashRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	eng := newSharded(t, pool, shards, Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond})

	var (
		mu    sync.Mutex
		acked = map[string]string{}
		lost  = map[string]bool{}
	)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; ; op++ {
				key := fmt.Sprintf("c%d-%04d", c, op)
				val := fmt.Sprintf("v%d-%04d", c, op)
				_, err := eng.Put([]byte(key), []byte(val))
				mu.Lock()
				if err != nil {
					lost[key] = true
				} else {
					acked[key] = val
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	// Let every shard commit a few batches, then pull the plug mid-load.
	for eng.AggregateStats().GroupCommits < 3*shards {
		time.Sleep(time.Millisecond)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(acked) == 0 || len(lost) == 0 {
		t.Fatalf("crash timing degenerate: %d acked, %d lost", len(acked), len(lost))
	}

	reopened := newSharded(t, pool, shards, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer reopened.Close()
	for key, want := range acked {
		v, ok, err := reopened.Get([]byte(key))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("acked write %s lost by crash: %q ok=%v err=%v (shard %d)",
				key, v, ok, err, reopened.ShardFor([]byte(key)))
		}
	}
	for key := range lost {
		if _, ok, _ := reopened.Get([]byte(key)); ok {
			t.Fatalf("unacked write %s survived the crash (shard %d)",
				key, reopened.ShardFor([]byte(key)))
		}
	}
	t.Logf("crash at %d acked / %d in-flight across %d shards; all semantics held",
		len(acked), len(lost), shards)
}

// Router stability: the key→shard mapping must be a pure function of key and
// shard count, or a restart would look for keys in the wrong pool.
func TestShardedRouterStableAcrossRestart(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")

	eng := newSharded(t, pool, shards, Config{MaxBatch: 16, MaxDelay: 100 * time.Microsecond})
	route := map[string]int{}
	for i := 0; i < 48; i++ {
		key := fmt.Sprintf("stable-%03d", i)
		route[key] = eng.ShardFor([]byte(key))
		if _, err := eng.Put([]byte(key), []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The files on disk describe the layout; discovery must agree.
	if n, err := DiscoverShards(pool); n != shards || err != nil {
		t.Fatalf("discover after close: %d %v", n, err)
	}
	reopened := newSharded(t, pool, shards, Config{})
	defer reopened.Close()
	for key, shard := range route {
		if got := reopened.ShardFor([]byte(key)); got != shard {
			t.Fatalf("key %s moved shard %d -> %d across restart", key, shard, got)
		}
		v, ok, err := reopened.Get([]byte(key))
		if err != nil || !ok || string(v) != key {
			t.Fatalf("key %s unreadable after restart: %q ok=%v err=%v", key, v, ok, err)
		}
	}
}

// The TCP server must work identically over a ShardedEngine backend,
// including the fan-out ops (PERSIST, STATS).
func TestShardedTCPServer(t *testing.T) {
	eng := newSharded(t, "", 2, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	srv := NewServer(eng)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		eng.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	cl, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("wire-%02d", i))
		if _, err := cl.Put(key, key); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, key) {
			t.Fatalf("get over wire: %q ok=%v err=%v", v, ok, err)
		}
	}
	if ep, err := cl.Persist(); err != nil || ep == 0 {
		t.Fatalf("persist over wire: %d %v", ep, err)
	}
	text, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{`paxserve_acked_writes{shard="0"}`, `paxserve_acked_writes{shard="1"}`, "paxserve_shards 2"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("sharded stats reply missing %s:\n%s", metric, text)
		}
	}
}

// An Overwrite reformat must clear whichever layout was there before, so a
// shard-count change cannot strand stale files for discovery to trip over.
func TestOpenShardedOverwriteReplacesLayout(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")

	eng := newSharded(t, pool, 1, Config{})
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	opts := smallOpts()
	opts.Overwrite = true
	eng2, err := OpenSharded(pool, 3, opts, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, ok, _ := eng2.Get([]byte("k")); ok {
		t.Fatal("reformat kept old data")
	}
	if n, err := DiscoverShards(pool); n != 3 || err != nil {
		t.Fatalf("discover after reformat: %d %v", n, err)
	}
}

func TestOpenShardedFirstErrorWins(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "kv.pool")
	// Pre-plant a directory where shard 1's file should go: that shard's
	// open fails, and the whole OpenSharded must fail and clean up.
	if err := os.Mkdir(pool+".shard-1", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(pool, 3, smallOpts(), 0, Config{}); err == nil {
		t.Fatal("OpenSharded succeeded over an unopenable shard")
	}
}

// An existing multi-shard layout without its slot-map sidecar opens only
// when every shard is empty (a crash after the shard files were created but
// before the first map save); with keys on any shard the open is refused
// with an error naming the missing sidecar.
func TestOpenShardedMissingSlotMap(t *testing.T) {
	layout := func(t *testing.T, keys int) string {
		t.Helper()
		pool := filepath.Join(t.TempDir(), "kv.pool")
		eng := newSharded(t, pool, 2, Config{})
		for i := 0; i < keys; i++ {
			if _, err := eng.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(SlotMapPath(pool)); err != nil {
			t.Fatal(err)
		}
		return pool
	}

	t.Run("empty shards open with the default map", func(t *testing.T) {
		pool := layout(t, 0)
		eng := newSharded(t, pool, 2, Config{})
		defer eng.Close()
		m, err := LoadSlotMap(pool)
		if err != nil || m == nil {
			t.Fatalf("slot map not saved on open: %v %v", m, err)
		}
		if m.Assign != DefaultSlotMap(2).Assign {
			t.Fatal("saved map is not the default map")
		}
		if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("keys without a map are refused", func(t *testing.T) {
		pool := layout(t, 8)
		eng, err := OpenSharded(pool, 2, smallOpts(), 0, Config{})
		if err == nil {
			eng.Close()
			t.Fatal("opened a non-empty layout with no slot map")
		}
		if !strings.Contains(err.Error(), SlotMapPath(pool)) {
			t.Fatalf("error %q does not name the missing sidecar", err)
		}
		if _, statErr := os.Stat(SlotMapPath(pool)); !os.IsNotExist(statErr) {
			t.Fatalf("refused open still wrote a slot map: %v", statErr)
		}
	})
}
