package pmem

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenLoadsImageInPlace: Open reads the pool file straight into media,
// and refuses a file that is too short (the read comes up short) or too
// long for the configured size, naming the size it found.
func TestOpenLoadsImageInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.pool")
	image := bytes.Repeat([]byte("pool-image"), 1000)[:8192]
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path, DefaultConfig(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Snapshot(), image) {
		t.Fatal("opened media differs from the pool file")
	}
	if d.Reads.Load() != 0 || d.BytesRead.Load() != 0 {
		t.Fatal("loading the image charged media reads")
	}
	if d.OpenTimings.CheckpointLoad <= 0 {
		t.Fatal("checkpoint load time not recorded")
	}

	for _, tc := range []struct {
		name string
		size int
		want string
	}{
		{"short read", len(image) + 64, "holds 8192 bytes, config wants 8256"},
		{"long file", len(image) - 64, "holds 8192 bytes, config wants 8128"},
		{"empty file", 0, ""},
	} {
		p := path
		if tc.size == 0 {
			p = filepath.Join(dir, "empty.pool")
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.size, tc.want = 512, "holds 0 bytes, config wants 512"
		}
		_, err := Open(p, DefaultConfig(tc.size))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOpenTimingsDeltaMode: an epoch-log reopen records both stages.
func TestOpenTimingsDeltaMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.pool")
	cfg := DefaultConfig(4096)
	cfg.EpochLog = true
	d, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.OpenTimings.CheckpointLoad != 0 {
		t.Fatal("a fresh pool file has no checkpoint to load")
	}
	d.Write(64, []byte("delta"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.OpenTimings.CheckpointLoad <= 0 || d2.OpenTimings.Replay <= 0 {
		t.Fatalf("open timings %+v, want both stages recorded", d2.OpenTimings)
	}
	if got := d2.ReplayInfo().Records; got != 1 {
		t.Fatalf("replayed %d records, want 1", got)
	}
}

// TestZeroSkipsZeroChunks: Zero writes only the chunks that are not zero
// already, so a fresh device stays untouched (nothing dirty to persist)
// while a reused one is cleared.
func TestZeroSkipsZeroChunks(t *testing.T) {
	const size = 4 * len(zeroChunk)
	cfg := DefaultConfig(size)
	cfg.EpochLog = true
	d := New(cfg)
	d.Zero(0, size, 0)
	if d.Writes.Load() != 0 || len(d.dirty) != 0 {
		t.Fatalf("zeroing a fresh device wrote %d times, %d dirty ranges", d.Writes.Load(), len(d.dirty))
	}

	d.Write(uint64(len(zeroChunk))+5, []byte{1}, 0)
	d.Write(uint64(size-20), []byte{3}, 0) // inside the partial last chunk
	d.Write(uint64(size-1), []byte{2}, 0)  // past the zeroed range
	d.Writes.Reset()
	d.Zero(0, size-10, 0) // a partial last chunk
	if got := d.Writes.Load(); got != 2 {
		t.Fatalf("Zero issued %d writes, want the 2 non-zero chunks", got)
	}
	img := d.Snapshot()
	if !bytes.Equal(img[:size-10], make([]byte, size-10)) {
		t.Fatal("Zero left non-zero bytes in range")
	}
	if img[size-1] != 2 {
		t.Fatal("Zero cleared a byte past its range")
	}
}

// TestMediaViewReadsMediaOnly: the view reads the image without charging
// the device, and refuses stores.
func TestMediaViewReadsMediaOnly(t *testing.T) {
	d := New(DefaultConfig(1024))
	d.Write(100, []byte("media"), 0)
	v := d.View()
	buf := make([]byte, 5)
	v.Load(100, buf)
	if string(buf) != "media" {
		t.Fatalf("view read %q", buf)
	}
	if d.Reads.Load() != 0 {
		t.Fatal("view load charged a media read")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("store through the read-only view did not panic")
		}
	}()
	v.Store(100, []byte("x"))
}
