// Package core implements libpax (§3 of the paper): pool layout, the
// programming model that turns a mapped vPM region plus a PAX device into
// crash-consistent snapshots of arbitrary data structures, the persist()
// orchestration, and the §3.4 recovery procedure.
//
// Pool media layout:
//
//	[ header 4 KiB | undo log | data region (vPM) ]
//
// The vPM region is mapped into the host address space at an address equal
// to its media offset (identity mapping), so pointers stored inside the
// region remain valid across restarts. The data region holds the pool
// allocator's metadata and a 16-slot root-object table as ordinary vPM data,
// which makes allocator state and roots crash-consistent with no special
// handling: they roll back with the snapshot like everything else.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"pax/internal/alloc"
	"pax/internal/cache"
	"pax/internal/device"
	"pax/internal/memory"
	"pax/internal/pmem"
	"pax/internal/sim"
	"pax/internal/stats"
	"pax/internal/undolog"
	"pax/internal/vpm"
)

const (
	// HeaderSize is the pool header region size.
	HeaderSize = 4096
	// RootSlots is the number of named root-object slots.
	RootSlots = 16
	// EpochCellOffset is the media offset of the 8-byte durable-epoch cell;
	// crash-exploration tooling watches writes to it to find snapshot
	// boundaries.
	EpochCellOffset = 56

	poolMagic   = 0x5041585034f4f4c1 // "PAXP…" tag
	poolVersion = 1

	offMagic        = 0
	offVersion      = 8
	offTotalSize    = 16
	offLogOff       = 24
	offLogSize      = 32
	offDataOff      = 40
	offDataSize     = 48
	offDurableEpoch = 56
	offHeaderCRC    = 64
	// headerCRCSpan covers the immutable geometry fields only; the
	// durable-epoch cell at offset 56 changes on every persist and is
	// protected by its own atomicity (single 8-byte store), not the CRC.
	headerCRCSpan = 56
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options parameterize pool creation and opening.
type Options struct {
	// DataSize is the vPM data region size; LogSize the undo log region
	// size. Only Create uses them; Open reads geometry from the header.
	DataSize, LogSize uint64
	// Device configures the PAX accelerator.
	Device device.Config
	// Host configures the simulated host cache hierarchy.
	Host sim.HostProfile
}

// DefaultOptions returns a 64 MiB pool with an 8 MiB undo log on a
// CXL-class device and the c6420-class host.
func DefaultOptions() Options {
	return Options{
		DataSize: 64 << 20,
		LogSize:  8 << 20,
		Device:   device.DefaultConfig(),
		Host:     sim.DefaultHost(),
	}
}

// RecoveryReport describes what Open had to repair.
type RecoveryReport struct {
	DurableEpoch    uint64
	EntriesScanned  int
	LinesRolledBack int
}

// Pool is an open PAX pool: media, device, host hierarchy, allocator, roots.
type Pool struct {
	pm   *pmem.Device
	hier *cache.Hierarchy
	dev  *device.Device
	aren *alloc.Arena

	logOff, logSize   uint64
	dataOff, dataSize uint64
	rootTable         uint64

	recovered RecoveryReport
	timings   PersistTimings
}

// PersistTimings are per-stage persist latencies, recorded on every Persist /
// PersistPipelined call. DeviceNS and SyncNS are wall-clock nanoseconds — the
// real time the serving host spends in each stage, which is what a latency
// budget for the group-commit engine is made of. LogWaitPS is the *simulated*
// picoseconds the device stalled waiting for undo-log durability (the §3.3
// asynchronous-logging claim: this should stay near zero when logging keeps
// up with the mutation rate). Histograms are lock-free and safe to sample
// concurrently with a persist in flight.
type PersistTimings struct {
	DeviceNS  stats.LatencyHistogram // snoop + log wait + write-back (device side)
	SyncNS    stats.LatencyHistogram // media commit (pmem.Sync, all stages)
	LogWaitPS stats.LatencyHistogram // simulated undo-durability stall
	// SyncBytes is not a latency at all but rides the same lock-free
	// histogram machinery: bytes persisted per media commit. Full-image mode
	// pins it at the pool size; epoch-log mode makes it O(dirty), which is
	// the whole point — the quantiles read out the write amplification.
	SyncBytes stats.LatencyHistogram
}

func headerField(pm *pmem.Device, off uint64) uint64 {
	var b [8]byte
	pm.Read(off, b[:], 0)
	return binary.LittleEndian.Uint64(b[:])
}

// Create formats a fresh pool on pm and returns it ready for use. pm must be
// at least HeaderSize + LogSize + DataSize bytes; existing contents are
// overwritten.
func Create(pm *pmem.Device, opts Options) (*Pool, error) {
	if opts.DataSize == 0 || opts.LogSize == 0 {
		return nil, fmt.Errorf("core: zero region size (data %d, log %d)", opts.DataSize, opts.LogSize)
	}
	if opts.DataSize%cache.LineSize != 0 || opts.LogSize%cache.LineSize != 0 {
		return nil, fmt.Errorf("core: region sizes must be line-aligned")
	}
	need := HeaderSize + opts.LogSize + opts.DataSize
	if uint64(pm.Size()) < need {
		return nil, fmt.Errorf("core: device of %d bytes < pool of %d", pm.Size(), need)
	}

	logOff := uint64(HeaderSize)
	dataOff := logOff + opts.LogSize

	// Header.
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[offMagic:], poolMagic)
	binary.LittleEndian.PutUint64(hdr[offVersion:], poolVersion)
	binary.LittleEndian.PutUint64(hdr[offTotalSize:], need)
	binary.LittleEndian.PutUint64(hdr[offLogOff:], logOff)
	binary.LittleEndian.PutUint64(hdr[offLogSize:], opts.LogSize)
	binary.LittleEndian.PutUint64(hdr[offDataOff:], dataOff)
	binary.LittleEndian.PutUint64(hdr[offDataSize:], opts.DataSize)
	binary.LittleEndian.PutUint64(hdr[offDurableEpoch:], 0)
	binary.LittleEndian.PutUint32(hdr[offHeaderCRC:], crc32.Checksum(hdr[:headerCRCSpan], crcTable))
	pm.Write(0, hdr[:], 0)

	// Zero the data region so a reused device starts clean. Chunks already
	// zero are skipped, so a fresh pool's first commit carries no 64 MiB
	// zero delta.
	pm.Zero(dataOff, int(opts.DataSize), 0)

	log := undolog.Create(pm, logOff, opts.LogSize)

	// Formatting wrote megabytes at virtual time zero; clear the media
	// channel queues so the pool's first epoch does not inherit a formatting
	// backlog (formatting is offline work, not measured time).
	pm.ResetStats()

	p := &Pool{
		pm:      pm,
		logOff:  logOff,
		logSize: opts.LogSize,
		dataOff: dataOff, dataSize: opts.DataSize,
	}
	p.buildRuntime(opts, log, 1)

	// Format the allocator and the root table inside vPM.
	p.aren = alloc.Create(p.Mem(0), dataOff, opts.DataSize)
	rootAddr, err := p.aren.Alloc(RootSlots * 8)
	if err != nil {
		return nil, fmt.Errorf("core: allocating root table: %w", err)
	}
	p.rootTable = rootAddr
	zeroRoots := make([]byte, RootSlots*8)
	p.Mem(0).Store(rootAddr, zeroRoots)

	// Commit the formatted (empty) pool as the first durable snapshot, so a
	// crash right after Create recovers an empty pool instead of failing to
	// find the allocator.
	if _, err := p.Persist(); err != nil {
		return nil, fmt.Errorf("core: committing formatted pool: %w", err)
	}
	return p, nil
}

// Open attaches to an existing pool on pm, performing §3.4 recovery first:
// read the durable epoch, undo every logged line from any newer epoch, then
// initialize the device and allocator as usual. Opening a cleanly persisted
// pool and recovering a crashed one are the same code path.
func Open(pm *pmem.Device, opts Options) (*Pool, error) {
	var hdr [HeaderSize]byte
	pm.Read(0, hdr[:], 0)
	if got := binary.LittleEndian.Uint64(hdr[offMagic:]); got != poolMagic {
		return nil, fmt.Errorf("core: bad pool magic %#x", got)
	}
	if got := binary.LittleEndian.Uint64(hdr[offVersion:]); got != poolVersion {
		return nil, fmt.Errorf("core: unsupported pool version %d", got)
	}
	if got := crc32.Checksum(hdr[:headerCRCSpan], crcTable); got != binary.LittleEndian.Uint32(hdr[offHeaderCRC:]) {
		return nil, fmt.Errorf("core: pool header checksum mismatch")
	}
	p := &Pool{
		pm:       pm,
		logOff:   binary.LittleEndian.Uint64(hdr[offLogOff:]),
		logSize:  binary.LittleEndian.Uint64(hdr[offLogSize:]),
		dataOff:  binary.LittleEndian.Uint64(hdr[offDataOff:]),
		dataSize: binary.LittleEndian.Uint64(hdr[offDataSize:]),
	}
	if total := binary.LittleEndian.Uint64(hdr[offTotalSize:]); uint64(pm.Size()) < total {
		return nil, fmt.Errorf("core: device of %d bytes < pool of %d", pm.Size(), total)
	}

	durable := binary.LittleEndian.Uint64(hdr[offDurableEpoch:])
	log, err := undolog.Open(pm, p.logOff, p.logSize)
	if err != nil {
		return nil, fmt.Errorf("core: opening undo log: %w", err)
	}

	// Roll back: for each line, the entry from the smallest epoch >
	// durable holds the value as of the last durable snapshot (the device
	// logs each line once per epoch, on first modification).
	p.recovered.DurableEpoch = durable
	applied := make(map[uint64]bool)
	entries := log.EntriesAfterEpoch(durable)
	p.recovered.EntriesScanned = log.Live()
	for _, e := range entries {
		if e.Addr < p.dataOff || e.Addr+uint64(len(e.Old)) > p.dataOff+p.dataSize {
			// A checksummed entry pointing outside the data region means
			// the log was written by something else entirely; refuse to
			// scribble on arbitrary media.
			return nil, fmt.Errorf("core: undo entry for %#x outside data region [%#x,+%#x)",
				e.Addr, p.dataOff, p.dataSize)
		}
		if applied[e.Addr] {
			continue
		}
		applied[e.Addr] = true
		pm.Write(e.Addr, e.Old[:], 0)
		p.recovered.LinesRolledBack++
	}
	// Every live entry is now dead: entries ≤ durable were already
	// superseded by their epoch's committed write-back, newer ones were
	// just undone.
	log.Truncate(log.Head(), 0)

	p.buildRuntime(opts, log, durable+1)
	p.aren, err = alloc.Open(p.Mem(0), p.dataOff, p.dataSize)
	if err != nil {
		return nil, fmt.Errorf("core: opening allocator: %w", err)
	}
	p.rootTable = p.aren.HeapStart()
	return p, nil
}

// buildRuntime constructs the volatile machinery: host hierarchy, PAX
// device, vPM mapping.
func (p *Pool) buildRuntime(opts Options, log *undolog.Log, startEpoch uint64) {
	p.hier = cache.NewHierarchy(opts.Host)
	p.dev = device.New(opts.Device, p.pm, p.dataOff, p.dataOff, p.dataSize, log, offDurableEpoch, startEpoch)
	p.dev.AttachHost(p.hier)
	p.hier.AddRange(p.dataOff, p.dataSize, p.dev)
}

// Mem returns the vPM view of hardware thread i (bounds-checked, routed
// through core i's caches). Each simulated thread must use its own view.
func (p *Pool) Mem(i int) memory.Memory {
	return vpm.New(p.hier.Core(i), p.dataOff, p.dataSize)
}

// Allocator returns the pool allocator (bound to thread 0's memory view).
func (p *Pool) Allocator() memory.Allocator { return p.aren }

// Arena exposes the concrete allocator for diagnostics.
func (p *Pool) Arena() *alloc.Arena { return p.aren }

// Hierarchy exposes the host cache hierarchy (experiments, stats).
func (p *Pool) Hierarchy() *cache.Hierarchy { return p.hier }

// Device exposes the PAX device (experiments, stats).
func (p *Pool) Device() *device.Device { return p.dev }

// PM exposes the underlying media device.
func (p *Pool) PM() *pmem.Device { return p.pm }

// Unpersisted reports whether any store has happened since the last
// successful persist (for an opened pool: since Open). While it is false the
// media image is the pool's logical state, so it can be read directly.
func (p *Pool) Unpersisted() bool { return p.hier.StoredSincePersist() }

// MediaMem returns a read-only, untimed view of the data region as the media
// holds it, bypassing the host hierarchy and the device. It reads the
// logical state only while Unpersisted is false.
func (p *Pool) MediaMem() memory.Memory {
	return vpm.New(p.pm.View(), p.dataOff, p.dataSize)
}

// DataBase reports the vPM base address; DataSize its length.
func (p *Pool) DataBase() uint64 { return p.dataOff }

// DataSize reports the vPM region length.
func (p *Pool) DataSize() uint64 { return p.dataSize }

// Recovery reports what Open repaired (zero-valued after Create).
func (p *Pool) Recovery() RecoveryReport { return p.recovered }

// Timings exposes the persist-stage latency histograms.
func (p *Pool) Timings() *PersistTimings { return &p.timings }

// Epoch reports the current (not yet durable) epoch.
func (p *Pool) Epoch() uint64 { return p.dev.Epoch() }

// DurableEpoch reads the committed epoch from media.
func (p *Pool) DurableEpoch() uint64 { return headerField(p.pm, offDurableEpoch) }

// SetRoot stores a vPM address in root slot i. Roots live in vPM, so they
// become durable at the next Persist like any other data.
func (p *Pool) SetRoot(slot int, addr uint64) {
	if slot < 0 || slot >= RootSlots {
		panic(fmt.Sprintf("core: root slot %d outside [0,%d)", slot, RootSlots))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], addr)
	p.Mem(0).Store(p.rootTable+uint64(slot)*8, b[:])
}

// Root reads root slot i (0 means unset).
func (p *Pool) Root(slot int) uint64 {
	if slot < 0 || slot >= RootSlots {
		panic(fmt.Sprintf("core: root slot %d outside [0,%d)", slot, RootSlots))
	}
	var b [8]byte
	p.Mem(0).Load(p.rootTable+uint64(slot)*8, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Persist runs the §3.3 protocol: snoop back the epoch's modified lines,
// wait for undo durability, write everything back, and atomically commit the
// epoch. The calling thread (core 0) stalls until the device reports
// completion. The caller must ensure no other thread is mutating vPM (§3.5).
//
// A non-nil error means the backing medium refused the image (an msync-class
// failure: EIO, ENOSPC): the epoch is NOT durable across a process restart
// and the caller must not ack anything from it. The device-side state has
// still advanced, so retrying Persist is legal — a later successful call
// makes everything up to it durable. The report is returned either way for
// its timing fields.
func (p *Pool) Persist() (device.PersistReport, error) {
	return p.persist(func(now sim.Time) (device.PersistReport, sim.Time) {
		rep := p.dev.Persist(now)
		return rep, rep.Done
	})
}

// PersistPipelined is the §6 non-blocking persist: the calling thread pays
// only the command-issue latency while the device commits the epoch in the
// background, overlapping the next epoch. The returned report's Done is the
// device-side commit time. As with Persist, no thread may be mutating vPM at
// the call (the snapshot point is the call itself), and a non-nil error
// means the epoch is not durable on media (see Persist).
func (p *Pool) PersistPipelined() (device.PersistReport, error) {
	return p.persist(p.dev.PersistPipelined)
}

// persist is the body both persist modes share. devicePersist runs the
// device side of the protocol from core 0's current time and returns the
// report plus the time core 0 resumes at; persist then commits the media
// image and records the per-stage timings.
func (p *Pool) persist(devicePersist func(now sim.Time) (device.PersistReport, sim.Time)) (device.PersistReport, error) {
	devStart := time.Now()
	core0 := p.hier.Core(0)
	rep, resume := devicePersist(core0.Now())
	core0.Clock().AdvanceTo(resume)
	p.timings.DeviceNS.Since(devStart)
	p.timings.LogWaitPS.Observe(int64(rep.LogWaited))
	syncStart := time.Now()
	if err := p.pm.Sync(); err != nil {
		return rep, fmt.Errorf("core: committing epoch %d: %w", rep.Epoch, err)
	}
	p.timings.SyncNS.Since(syncStart)
	p.timings.SyncBytes.Observe(p.pm.LastSyncBytes())
	p.hier.MarkPersisted()
	return rep, nil
}

// Close syncs the media image (for file-backed pools) without persisting the
// current epoch: like a crash, any unpersisted epoch is rolled back on the
// next Open. Callers that want the latest state durable call Persist first.
// The media device is then shut down (background checkpoints drained, epoch
// log file handles released); the sync error, if any, wins.
func (p *Pool) Close() error {
	err := p.pm.Sync()
	if cerr := p.pm.Close(); err == nil {
		err = cerr
	}
	return err
}
