package blackbox

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// maxFuzzSegment caps fuzz inputs: a few records cover every decoder path,
// and larger inputs only slow the fuzzer's minimization.
const maxFuzzSegment = 4 << 10

// FuzzScanSegment feeds arbitrary bytes to the segment scanner as a segment
// file. The scanner must not panic, the committed prefix it reports must fit
// in the file, and every record it accepts must be, byte for byte, the
// canonical encoding of that record at the scan's offset — so a CRC, commit
// mark or length check the decoder skipped shows up as an accepted record
// that does not re-encode.
func FuzzScanSegment(f *testing.F) {
	src := filepath.Join(f.TempDir(), "bb")
	j, err := Open(Config{Dir: src})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"one", "", "three-three-three"} {
		if err := j.Append("ev", []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-recTrailerSize] ^= 0xff // last record's CRC
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated inside the last record
	f.Add(flipped)

	path := filepath.Join(f.TempDir(), "fuzz.bb")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzSegment {
			return
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		off := int64(segHeaderSize)
		_, good, torn, err := scanSegment(path, 0, true, func(rec Record) error {
			enc := encodeRecord(rec.Seq, rec.UnixNano, rec.Type, rec.Payload)
			end := off + int64(len(enc))
			if end > int64(len(data)) || !bytes.Equal(data[off:end], enc) {
				t.Fatalf("accepted record %d is not the input's bytes at offset %d", rec.Seq, off)
			}
			off = end
			return nil
		})
		if err != nil {
			return // corruption is reported, never panicked on
		}
		if good > int64(len(data)) {
			t.Fatalf("committed prefix %d exceeds the %d-byte file", good, len(data))
		}
		if good != off {
			t.Fatalf("committed prefix %d, accepted records end at %d", good, off)
		}
		if torn != (good < int64(len(data))) {
			t.Fatalf("torn %v with %d of %d bytes committed", torn, good, len(data))
		}
	})
}
