package epochlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestReplayReusedBufferAcrossRecordSizes: the scan decodes every record
// into one reused body buffer, so records that shrink, grow past the
// buffered reader's size, carry many ranges or none must each still hand
// apply exactly their own ranges — checked against a model image built from
// the appended ranges directly.
func TestReplayReusedBufferAcrossRecordSizes(t *testing.T) {
	const image = 1 << 20
	dir := filepath.Join(t.TempDir(), "pool.epochlog")
	s := openT(t, Config{Dir: dir})
	rng := rand.New(rand.NewSource(7))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Sizes straddle the scan buffer (scanBufferBytes) in both directions.
	shapes := [][]int{
		{300 << 10},         // one range larger than the scan buffer
		{3},                 // a tiny record right after it
		{},                  // an empty commit
		{64, 1, 4096, 7, 0}, // many ranges, one of them empty
		{scanBufferBytes - recHeaderSize - 16 - recTrailerSize}, // exactly one buffer
		{5 << 10, 600 << 10}, // grows past every earlier record
		{8},
	}
	var want []Record
	model := make([]byte, image)
	for i, sizes := range shapes {
		var ranges []Range
		for _, n := range sizes {
			addr := uint64(rng.Intn(image - n + 1))
			ranges = append(ranges, Range{Addr: addr, Data: payload(n)})
		}
		appendT(t, s, uint64(i+1), ranges...)
		want = append(want, Record{Seq: uint64(i + 1), Epoch: uint64(i + 1), Ranges: ranges})
		for _, r := range ranges {
			copy(model[r.Addr:], r.Data)
		}
	}
	s.Close()

	s2 := openT(t, Config{Dir: dir})
	got := make([]byte, image)
	var seen int
	err := s2.Replay(func(rec Record) error {
		w := want[seen]
		seen++
		if rec.Seq != w.Seq || rec.Epoch != w.Epoch || len(rec.Ranges) != len(w.Ranges) {
			t.Fatalf("record %d: seq %d epoch %d with %d ranges, want %d/%d/%d",
				seen, rec.Seq, rec.Epoch, len(rec.Ranges), w.Seq, w.Epoch, len(w.Ranges))
		}
		for i, r := range rec.Ranges {
			if r.Addr != w.Ranges[i].Addr || !bytes.Equal(r.Data, w.Ranges[i].Data) {
				t.Fatalf("record %d range %d: addr %d, %d bytes; want addr %d, %d bytes (or data differs)",
					rec.Seq, i, r.Addr, len(r.Data), w.Ranges[i].Addr, len(w.Ranges[i].Data))
			}
			copy(got[r.Addr:], r.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if seen != len(want) {
		t.Fatalf("replayed %d records, want %d", seen, len(want))
	}
	if !bytes.Equal(got, model) {
		t.Fatal("replayed image differs from the model image")
	}
}

// segmentBytes renders a segment image: header with firstSeq, then the
// encoded records.
func segmentBytes(firstSeq uint64, recs ...[]byte) []byte {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], firstSeq)
	out := hdr[:]
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// maxFuzzSegment caps FuzzReadRecord's input size.
const maxFuzzSegment = 1 << 10

// FuzzReadRecord feeds arbitrary bytes to the segment decoder as one whole
// segment (header included). It checks that decoding never panics and that
// every record the scan accepts is, byte for byte, a canonical encoding
// sitting at the scan's offset: its CRC matches, its commit mark is present
// and its sequence is the expected one. The comparison runs inside the
// callback against the input, so a decoder that recycled a record's buffer
// before the callback returned would fail it.
func FuzzReadRecord(f *testing.F) {
	r1 := encodeRecord(1, 10, []Range{{Addr: 8, Data: []byte("hello")}})
	r2 := encodeRecord(2, 11, []Range{{Addr: 0, Data: []byte("a")}, {Addr: 99, Data: []byte("bcd")}})
	r3 := encodeRecord(3, 12, nil)
	big := encodeRecord(2, 11, []Range{{Addr: 4096, Data: bytes.Repeat([]byte{0xAB}, 300)}})
	f.Add(segmentBytes(1))
	f.Add(segmentBytes(1, r1, r2, r3))
	f.Add(segmentBytes(1, r1, big, r3))
	f.Add(segmentBytes(1, r1, r2[:len(r2)-3]))                 // torn commit mark
	f.Add(segmentBytes(1, r1, r2[:recHeaderSize+5]))           // torn body
	f.Add(segmentBytes(5, r1))                                 // sequence mismatch
	f.Add(segmentBytes(1, r1, bytes.Repeat([]byte{0xCD}, 64))) // poison tail
	f.Add([]byte("not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzSegment {
			// Larger inputs add no decoder paths (records larger than the
			// scan buffer are covered by the replay test) and make the
			// fuzzer's input minimization crawl.
			return
		}
		off := int64(segHeaderSize)
		var expect uint64
		calls := 0
		info, err := scanRecords(bytes.NewReader(data), int64(len(data)), SegmentInfo{Name: "fuzz.seg"}, true,
			func(rec Record) error {
				calls++
				if calls == 1 {
					expect = binary.LittleEndian.Uint64(data[16:])
				}
				if rec.Seq != expect {
					t.Fatalf("accepted record seq %d, want %d", rec.Seq, expect)
				}
				expect++
				enc := encodeRecord(rec.Seq, rec.Epoch, rec.Ranges)
				end := off + int64(len(enc))
				if end > int64(len(data)) || !bytes.Equal(data[off:end], enc) {
					t.Fatalf("accepted record %d is not the input's bytes at offset %d", rec.Seq, off)
				}
				crcAt := end - recTrailerSize
				if crc32.Checksum(data[off:crcAt], crcTable) != binary.LittleEndian.Uint32(data[crcAt:]) {
					t.Fatalf("accepted record %d fails its CRC", rec.Seq)
				}
				if binary.LittleEndian.Uint64(data[crcAt+4:]) != recCommitMark {
					t.Fatalf("accepted record %d lacks its commit mark", rec.Seq)
				}
				off = end
				return nil
			})
		if err != nil {
			return // corruption is reported, never panicked on
		}
		if info.Records != calls {
			t.Fatalf("info counts %d records, callback saw %d", info.Records, calls)
		}
		if info.Bytes != off {
			t.Fatalf("info.Bytes %d, accepted records end at %d", info.Bytes, off)
		}
		if info.TornTail != (off < int64(len(data))) {
			t.Fatalf("TornTail %v with %d of %d bytes accepted", info.TornTail, off, len(data))
		}
	})
}
