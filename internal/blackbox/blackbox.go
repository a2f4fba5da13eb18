// Package blackbox implements the crash black box: an append-only,
// CRC-framed telemetry journal that survives the process it describes.
//
// The serving stack's observability plane (/metrics, the TRACE flight
// recorder) is volatile — when an engine seals fail-stop or the process is
// killed, the records that explain why die with it. The black box closes
// that gap: lifecycle events (seals, failed commits, reshard transitions,
// policy decisions), periodic windowed metrics snapshots, and the flight
// recorder's failed/slow commit records are appended to a size-bounded
// journal in `<pool>.blackbox/seg-*.bb`, each record fsynced, so a
// postmortem (`paxinspect -postmortem`) can reconstruct the last moments
// from the files alone.
//
// Framing borrows internal/epochlog's discipline, with the journal's own
// magic numbers:
//
//	segment: [segMagic u64 | segVersion u64 | firstSeq u64 | reserved u64]
//	record:  [recMagic u32 | typeLen u32 | seq u64 | unixNano u64 | payloadLen u64]
//	         [type bytes | payload bytes]
//	         [crc32c u32 (header+body) | recCommitMark u64]
//
// Torn-tail rules match the epoch log: a partial, CRC-failing, or unmarked
// record is legal only at the tail of the newest segment (the append the
// crash interrupted) and is truncated away on writable open; anywhere else
// it is corruption. Sequence numbers are contiguous across the surviving
// segments — rotation deletes whole oldest segments, never records — so a
// reader can prove it lost nothing inside the retained window.
package blackbox

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	// DirSuffix names the journal directory next to a pool file:
	// `<pool>.blackbox/`. One journal serves the whole fleet (events carry
	// their shard), so it sits at the pool path, not per shard file.
	DirSuffix = ".blackbox"

	segMagic      uint64 = 0x5041584242423031 // "PAXBBB01"
	segVersion    uint64 = 1
	segHeaderSize        = 32

	recMagic       uint32 = 0x42424556         // "BBEV"
	recCommitMark  uint64 = 0x5041584243415054 // "PAXBCAPT"
	recHeaderSize         = 32
	recTrailerSize        = 12

	// DefaultSegmentBytes bounds one segment; DefaultMaxSegments bounds the
	// journal (oldest segment deleted on rotation past the cap), so the
	// black box holds the most recent ~8 MiB of telemetry by default.
	DefaultSegmentBytes int64 = 1 << 20
	DefaultMaxSegments        = 8

	// maxTypeLen/maxPayloadLen reject implausible lengths before allocating:
	// a header whose lengths exceed them is torn-tail garbage, not a record.
	maxTypeLen    = 256
	maxPayloadLen = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segName renders a segment file name; zero-padding keeps lexical order
// numeric.
func segName(index uint64) string { return fmt.Sprintf("seg-%08d.bb", index) }

// Record is one committed journal entry.
type Record struct {
	Seq      uint64
	UnixNano int64
	Type     string
	Payload  []byte
}

// Config parameterizes Open.
type Config struct {
	// Dir is the journal directory (conventionally `<pool>` + DirSuffix).
	Dir string
	// SegmentBytes caps one segment (default DefaultSegmentBytes); the
	// journal rolls to a new segment when an append would exceed it.
	SegmentBytes int64
	// MaxSegments caps the journal (default DefaultMaxSegments, min 2): on
	// rotation the oldest segments beyond the cap are deleted.
	MaxSegments int
	// ReadOnly opens for postmortem analysis: no truncation, no appends,
	// torn tails reported rather than repaired.
	ReadOnly bool
}

// Info summarizes what Open found.
type Info struct {
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	Records  int    `json:"records"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// TornTail reports whether the newest segment ended in an interrupted
	// append (truncated away on writable open); TornBytes is its length.
	TornTail  bool  `json:"torn_tail"`
	TornBytes int64 `json:"torn_bytes"`
}

// segMeta tracks one live segment.
type segMeta struct {
	index    uint64
	firstSeq uint64
	records  int
}

// Journal is an open black box.
type Journal struct {
	dir string
	cfg Config

	mu         sync.Mutex
	f          *os.File // active segment, nil when read-only
	activeSize int64
	segs       []segMeta
	nextSeq    uint64
	firstSeq   uint64
	lastSeq    uint64
	torn       bool
	tornBytes  int64
	closed     bool
}

// Open scans (and, when writable, repairs) the journal at cfg.Dir. A
// writable open creates the directory and first segment as needed and
// truncates a torn tail off the newest segment; a read-only open requires
// the directory to exist and leaves the files untouched.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("blackbox: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.SegmentBytes < segHeaderSize+recHeaderSize+recTrailerSize {
		return nil, fmt.Errorf("blackbox: segment size %d too small to hold a record", cfg.SegmentBytes)
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = DefaultMaxSegments
	}
	if cfg.MaxSegments < 2 {
		cfg.MaxSegments = 2
	}
	if cfg.ReadOnly {
		if fi, err := os.Stat(cfg.Dir); err != nil {
			return nil, fmt.Errorf("blackbox: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("blackbox: %s is not a directory", cfg.Dir)
		}
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("blackbox: %w", err)
	}

	indices, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: cfg.Dir, cfg: cfg, nextSeq: 1}
	for i, idx := range indices {
		tailOK := i == len(indices)-1
		path := filepath.Join(cfg.Dir, segName(idx))
		expect := uint64(0) // adopt the oldest segment's header
		if i > 0 {
			expect = j.nextSeq
		}
		meta := segMeta{index: idx}
		next, good, torn, err := scanSegment(path, expect, tailOK, func(rec Record) error {
			if j.firstSeq == 0 {
				j.firstSeq = rec.Seq
			}
			j.lastSeq = rec.Seq
			meta.records++
			return nil
		})
		if err != nil {
			return nil, err
		}
		meta.firstSeq = next - uint64(meta.records)
		j.nextSeq = next
		j.segs = append(j.segs, meta)
		if torn {
			j.torn = true
			if fi, statErr := os.Stat(path); statErr == nil {
				j.tornBytes = fi.Size() - good
			}
			if !cfg.ReadOnly {
				// Repair: drop the interrupted append so the next record
				// lands on a clean boundary, and make the repair durable.
				f, err := os.OpenFile(path, os.O_RDWR, 0o644)
				if err != nil {
					return nil, fmt.Errorf("blackbox: repairing %s: %w", path, err)
				}
				if err := f.Truncate(good); err == nil {
					err = f.Sync()
				}
				if cerr := f.Close(); cerr != nil && err == nil {
					err = cerr
				}
				if err != nil {
					return nil, fmt.Errorf("blackbox: repairing %s: %w", path, err)
				}
			}
		}
		if tailOK {
			j.activeSize = good
		}
	}

	if cfg.ReadOnly {
		return j, nil
	}
	if len(j.segs) == 0 {
		if err := j.newSegmentLocked(1); err != nil {
			return nil, err
		}
		return j, nil
	}
	active := filepath.Join(cfg.Dir, segName(j.segs[len(j.segs)-1].index))
	f, err := os.OpenFile(active, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blackbox: %w", err)
	}
	j.f = f
	return j, nil
}

// listSegments returns the segment indices present in dir, ascending. A file
// that looks like a segment but does not round-trip through segName is
// rejected rather than silently skipped.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("blackbox: %w", err)
	}
	var indices []uint64
	for _, e := range entries {
		name := e.Name()
		var idx uint64
		if n, _ := fmt.Sscanf(name, "seg-%d.bb", &idx); n != 1 {
			continue
		}
		if segName(idx) != name {
			return nil, fmt.Errorf("blackbox: malformed segment name %q in %s", name, dir)
		}
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, k int) bool { return indices[i] < indices[k] })
	return indices, nil
}

// scanSegment walks one segment's committed records, calling fn for each.
// expect is the sequence number the first record must carry (0 adopts the
// segment header's firstSeq — used for the oldest surviving segment, whose
// predecessors rotation deleted). It returns the next expected sequence
// number, the byte offset where the committed prefix ends, and whether a
// torn tail follows it. A torn tail is only legal when tailOK (the newest
// segment); anywhere else it is corruption.
func scanSegment(path string, expect uint64, tailOK bool, fn func(Record) error) (next uint64, good int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("blackbox: %w", err)
	}
	defer f.Close()

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, false, fmt.Errorf("blackbox: %s: segment header: %w", path, err)
	}
	if m := binary.LittleEndian.Uint64(hdr[0:8]); m != segMagic {
		return 0, 0, false, fmt.Errorf("blackbox: %s: bad segment magic %#x", path, m)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:16]); v != segVersion {
		return 0, 0, false, fmt.Errorf("blackbox: %s: unsupported segment version %d", path, v)
	}
	firstSeq := binary.LittleEndian.Uint64(hdr[16:24])
	if expect == 0 {
		expect = firstSeq
		if expect == 0 {
			return 0, 0, false, fmt.Errorf("blackbox: %s: segment header firstSeq 0", path)
		}
	} else if firstSeq != expect {
		return 0, 0, false, fmt.Errorf("blackbox: %s: segment starts at seq %d, want %d (records missing between segments)", path, firstSeq, expect)
	}

	good = segHeaderSize
	for {
		var rh [recHeaderSize]byte
		_, err := io.ReadFull(f, rh[:])
		if err == io.EOF {
			return expect, good, false, nil // clean record boundary
		}
		if err == io.ErrUnexpectedEOF || (err == nil && binary.LittleEndian.Uint32(rh[0:4]) != recMagic) {
			break // torn: partial header or garbage where a header should be
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("blackbox: %s: %w", path, err)
		}
		typeLen := binary.LittleEndian.Uint32(rh[4:8])
		seq := binary.LittleEndian.Uint64(rh[8:16])
		unixNano := int64(binary.LittleEndian.Uint64(rh[16:24]))
		payloadLen := binary.LittleEndian.Uint64(rh[24:32])
		if typeLen == 0 || typeLen > maxTypeLen || payloadLen > maxPayloadLen {
			break // torn: implausible lengths are interrupted-write garbage
		}
		body := make([]byte, int(typeLen)+int(payloadLen)+recTrailerSize)
		if _, err := io.ReadFull(f, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // torn: record cut off mid-body
			}
			return 0, 0, false, fmt.Errorf("blackbox: %s: %w", path, err)
		}
		trailer := body[len(body)-recTrailerSize:]
		crc := crc32.Checksum(rh[:], crcTable)
		crc = crc32.Update(crc, crcTable, body[:len(body)-recTrailerSize])
		if binary.LittleEndian.Uint32(trailer[0:4]) != crc ||
			binary.LittleEndian.Uint64(trailer[4:12]) != recCommitMark {
			break // torn: record present but never fully committed
		}
		// The record is committed; a wrong sequence number here is not a
		// tail the crash tore — it is corruption.
		if seq != expect {
			return 0, 0, false, fmt.Errorf("blackbox: %s: record seq %d, want %d", path, seq, expect)
		}
		rec := Record{
			Seq:      seq,
			UnixNano: unixNano,
			Type:     string(body[:typeLen]),
			Payload:  body[typeLen : uint64(typeLen)+payloadLen],
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, 0, false, err
			}
		}
		expect++
		good += recHeaderSize + int64(len(body))
	}
	if !tailOK {
		return 0, 0, false, fmt.Errorf("blackbox: %s: torn record inside a non-newest segment (corruption, not a crash tail)", path)
	}
	return expect, good, true, nil
}

// Append journals one record durably: framed, CRC'd, marked, fsynced. It
// rolls to a new segment (pruning the oldest past MaxSegments) when the
// active one is full. Safe for concurrent use.
func (j *Journal) Append(typ string, payload []byte) error {
	if typ == "" || len(typ) > maxTypeLen {
		return fmt.Errorf("blackbox: record type %q out of range", typ)
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("blackbox: payload %d bytes exceeds %d", len(payload), maxPayloadLen)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("blackbox: journal closed")
	}
	if j.f == nil {
		return fmt.Errorf("blackbox: journal is read-only")
	}
	size := int64(recHeaderSize + len(typ) + len(payload) + recTrailerSize)
	if j.activeSize+size > j.cfg.SegmentBytes && j.activeSize > segHeaderSize {
		if err := j.rollLocked(); err != nil {
			return err
		}
	}

	buf := encodeRecord(j.nextSeq, time.Now().UnixNano(), typ, payload)
	if _, err := j.f.WriteAt(buf, j.activeSize); err != nil {
		// Rewind so a partial write does not sit between committed records.
		_ = j.f.Truncate(j.activeSize)
		return fmt.Errorf("blackbox: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		_ = j.f.Truncate(j.activeSize)
		return fmt.Errorf("blackbox: append sync: %w", err)
	}
	if j.firstSeq == 0 {
		j.firstSeq = j.nextSeq
	}
	j.lastSeq = j.nextSeq
	j.nextSeq++
	j.activeSize += size
	j.segs[len(j.segs)-1].records++
	return nil
}

// encodeRecord frames one record: header, type and payload, then the CRC
// over both and the commit mark.
func encodeRecord(seq uint64, unixNano int64, typ string, payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(typ)+len(payload)+recTrailerSize)
	binary.LittleEndian.PutUint32(buf[0:4], recMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(typ)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(unixNano))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(len(payload)))
	copy(buf[recHeaderSize:], typ)
	copy(buf[recHeaderSize+len(typ):], payload)
	crc := crc32.Checksum(buf[:recHeaderSize+len(typ)+len(payload)], crcTable)
	trailer := buf[len(buf)-recTrailerSize:]
	binary.LittleEndian.PutUint32(trailer[0:4], crc)
	binary.LittleEndian.PutUint64(trailer[4:12], recCommitMark)
	return buf
}

// AppendJSON marshals v and journals it under typ.
func (j *Journal) AppendJSON(typ string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("blackbox: encoding %s record: %w", typ, err)
	}
	return j.Append(typ, blob)
}

// rollLocked closes the active segment, starts the next, and prunes the
// oldest segments beyond MaxSegments. Caller holds j.mu.
func (j *Journal) rollLocked() error {
	next := j.segs[len(j.segs)-1].index + 1
	old := j.f
	j.f = nil
	if err := old.Close(); err != nil {
		return fmt.Errorf("blackbox: closing full segment: %w", err)
	}
	if err := j.newSegmentLocked(next); err != nil {
		return err
	}
	for len(j.segs) > j.cfg.MaxSegments {
		victim := j.segs[0]
		if err := os.Remove(filepath.Join(j.dir, segName(victim.index))); err != nil {
			return fmt.Errorf("blackbox: pruning segment %d: %w", victim.index, err)
		}
		j.segs = j.segs[1:]
		j.firstSeq = j.segs[0].firstSeq
	}
	return syncDir(j.dir)
}

// newSegmentLocked creates segment index with a durable header and makes it
// the active one. Caller holds j.mu.
func (j *Journal) newSegmentLocked(index uint64) error {
	path := filepath.Join(j.dir, segName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], j.nextSeq)
	if _, err := f.WriteAt(hdr[:], 0); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("blackbox: new segment: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.activeSize = segHeaderSize
	j.segs = append(j.segs, segMeta{index: index, firstSeq: j.nextSeq})
	return nil
}

// Replay streams every committed record, oldest first. On a read-only
// journal the newest segment's torn tail (if any) is skipped, exactly as a
// writable open would have truncated it.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	expect := uint64(0)
	for i, seg := range j.segs {
		path := filepath.Join(j.dir, segName(seg.index))
		next, _, _, err := scanSegment(path, expect, i == len(j.segs)-1, fn)
		if err != nil {
			return err
		}
		expect = next
	}
	return nil
}

// Info reports the journal's shape as of the last append (or, read-only, as
// of Open).
func (j *Journal) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	records := 0
	for _, seg := range j.segs {
		records += seg.records
	}
	return Info{
		Dir:       j.dir,
		Segments:  len(j.segs),
		Records:   records,
		FirstSeq:  j.firstSeq,
		LastSeq:   j.lastSeq,
		TornTail:  j.torn,
		TornBytes: j.tornBytes,
	}
}

// Close releases the active segment. Appended records are already durable —
// every Append fsyncs — so Close adds nothing a crash would miss.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f != nil {
		err := j.f.Close()
		j.f = nil
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames/creates/removes in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("blackbox: dir sync: %w", err)
	}
	return d.Close()
}
