package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"pax"
	"pax/internal/pmem"
)

// indexContents copies the engine's read index into a plain map.
func indexContents(e *Engine) map[string]string {
	out := make(map[string]string)
	for i := range e.idx.stripes {
		s := &e.idx.stripes[i]
		s.mu.RLock()
		for k, v := range s.m {
			out[k] = string(v)
		}
		s.mu.RUnlock()
	}
	return out
}

// TestRebuiltIndexMatchesHierarchyWalk: after a crash that leaves committed
// delta records in the epoch log and unpersisted undo-logged lines to roll
// back, the index New rebuilds from the media image holds exactly what a
// Map.ForEach walk through the simulated hierarchy finds, key for key and
// value for value — and both equal the acked state.
func TestRebuiltIndexMatchesHierarchyWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "walk.pool")
	pool, err := pax.CreatePool(path, deltaOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(pool, 0, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]string)
	for i := 0; i < 400; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d-%s", i, string(make([]byte, i%37)))
		if _, err := eng.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	for i := 0; i < 400; i += 7 {
		k := fmt.Sprintf("key-%03d", i)
		if _, _, err := eng.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(acked, k)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Mutate past the last persist, then shut down the way a crash would:
	// Close syncs the media — undo entries and any evicted lines — into the
	// epoch log without committing the epoch, so reopening must roll back.
	kv, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 3 {
		if err := kv.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("rolled-back-value")); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put([]byte(fmt.Sprintf("new-%03d", i)), []byte("never-persisted")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 400; i += 11 {
		if _, err := kv.Delete([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := pax.OpenPool(path, deltaOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovery().LinesRolledBack == 0 {
		t.Fatal("reopen rolled nothing back; the crash left no undo work")
	}
	if device(re).ReplayInfo().Records == 0 {
		t.Fatal("reopen replayed no delta records")
	}

	walk := make(map[string]string)
	rkv, err := pax.NewMap(re, 0)
	if err != nil {
		t.Fatal(err)
	}
	rkv.ForEach(func(k, v []byte) bool {
		walk[string(k)] = string(v)
		return true
	})

	reng, err := New(re, 0, Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	idx := indexContents(reng)
	for name, m := range map[string]map[string]string{"hierarchy walk": walk, "acked state": acked} {
		if len(idx) != len(m) {
			t.Fatalf("rebuilt index has %d keys, %s has %d", len(idx), name, len(m))
		}
		for k, v := range m {
			if got, ok := idx[k]; !ok || got != v {
				t.Fatalf("key %q: index has %q (present=%v), %s has %q", k, got, ok, name, v)
			}
		}
	}
	if got := reng.Stats().ReadIndexRebuilt.Load(); got != uint64(len(acked)) {
		t.Fatalf("rebuilt counter %d, want %d", got, len(acked))
	}

	snap, err := reng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pax_open_checkpoint_ns", "pax_open_replay_ns", "paxserve_open_index_ns"} {
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want a positive wall-clock duration", name, snap[name])
		}
	}
}

// TestNewRefusesUnpersistedPool: New indexes the media image, so a pool
// holding stores no persist made durable — including after a persist that
// failed — is refused instead of indexed.
func TestNewRefusesUnpersistedPool(t *testing.T) {
	pool, err := pax.CreatePool("", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kv, err := pax.NewMap(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(pool, 0, Config{}); !errors.Is(err, pax.ErrUnpersisted) {
		t.Fatalf("New on a pool with unpersisted stores: %v, want ErrUnpersisted", err)
	}

	device(pool).SetFaultFn(pmem.FailSyncs(1, errInjected))
	if _, err := pool.Persist(); err == nil {
		t.Fatal("persist through an injected fault succeeded")
	}
	if _, err := New(pool, 0, Config{}); !errors.Is(err, pax.ErrUnpersisted) {
		t.Fatalf("New after a failed persist: %v, want ErrUnpersisted", err)
	}

	if _, err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	eng, err := New(pool, 0, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatalf("New after a successful persist: %v", err)
	}
	defer eng.Close()
	if v, ok, err := eng.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v; want the persisted value", v, ok, err)
	}
}
