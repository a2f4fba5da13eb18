// Package hbm implements the PAX device's on-board high-bandwidth-memory
// cache of PM (Figure 1 of the paper). It buffers both clean lines (to serve
// host fills faster than Optane) and modified lines awaiting write-back.
//
// The cache is where §3.3's key freedom lives: a dirty line may be evicted to
// PM as soon as its undo-log entry is durable, so the device never limits the
// per-epoch working set. The eviction policy can prefer such "unlocked" lines
// (PreferDurable) or ignore durability (PlainLRU) — the `evict` experiment
// ablates the two.
package hbm

import (
	"fmt"

	"pax/internal/coherence"
	"pax/internal/stats"
)

// LineSize is the cache granule.
const LineSize = coherence.LineSize

// Policy selects the victim-selection strategy.
type Policy uint8

const (
	// PreferDurable evicts, in order of preference: invalid ways, clean
	// lines (LRU), dirty lines whose undo entry is durable (LRU), and only
	// as a last resort dirty lines whose undo entry is still in flight.
	PreferDurable Policy = iota
	// PlainLRU always evicts the least recently used way.
	PlainLRU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PreferDurable:
		return "prefer-durable"
	case PlainLRU:
		return "plain-lru"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Line is one cached line plus the write-back bookkeeping the device needs.
type Line struct {
	Addr  uint64
	Data  [LineSize]byte
	Dirty bool
	// LogBound is the undo-log virtual offset that must be durable before
	// this line may be written back to PM (entry offset + entry size).
	// Meaningful only when Dirty.
	LogBound uint64
}

type slot struct {
	valid   bool
	line    Line
	lastUse uint64
}

// Cache is the HBM cache: set-associative, with durability-aware eviction.
// It is purely functional; the device charges HBM latency itself.
type Cache struct {
	// sets views consecutive runs of ways in one flat slot array: two
	// allocations per cache instead of one per set.
	sets   [][]slot
	mask   uint64
	ways   int
	policy Policy
	useCtr uint64
	// dirty indexes the addresses of dirty lines so persist-time write-back
	// scans cost O(dirty), not O(cache size): a 16 MiB cache is ~256k slots,
	// and walking all of them per persist dominated group-commit cost. The
	// index is maintained at every dirty-bit transition (Insert, MarkClean,
	// Remove), which only works because Dirty is never mutated through the
	// pointers Lookup/Peek return.
	dirty map[uint64]struct{}

	// Ratio tracks device-side lookups (host fill requests reaching HBM).
	Ratio stats.Ratio
	// DirtyEvictionsStalled counts evictions that had to evict a line whose
	// undo entry was not yet durable (forcing the device to wait).
	DirtyEvictionsStalled stats.Counter
}

// New builds a cache of the given total size (bytes) and associativity.
func New(sizeBytes, ways int, policy Policy) *Cache {
	lines := sizeBytes / LineSize
	if lines == 0 || ways <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("hbm: size %d / ways %d does not divide into sets", sizeBytes, ways))
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("hbm: set count %d not a power of two", numSets))
	}
	slots := make([]slot, numSets*ways)
	sets := make([][]slot, numSets)
	for i := range sets {
		lo := i * ways
		sets[i] = slots[lo : lo+ways : lo+ways]
	}
	return &Cache{sets: sets, mask: uint64(numSets - 1), ways: ways, policy: policy,
		dirty: make(map[uint64]struct{})}
}

// Policy reports the configured eviction policy.
func (c *Cache) Policy() Policy { return c.policy }

func (c *Cache) set(addr uint64) []slot {
	return c.sets[(addr/LineSize)&c.mask]
}

// Lookup returns a pointer to the cached line for addr, or nil. It counts a
// hit or miss and refreshes LRU state on hit. The pointer is valid until the
// next Insert.
func (c *Cache) Lookup(addr uint64) *Line {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].line.Addr == addr {
			c.useCtr++
			set[i].lastUse = c.useCtr
			c.Ratio.Hits.Inc()
			return &set[i].line
		}
	}
	c.Ratio.Misses.Inc()
	return nil
}

// Peek is Lookup without statistics or LRU updates (used by the write-back
// coordinator's internal scans).
func (c *Cache) Peek(addr uint64) *Line {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].line.Addr == addr {
			return &set[i].line
		}
	}
	return nil
}

// Insert places ln into the cache. If the set is full it evicts a victim
// chosen by the policy and returns it with evicted=true; the caller (the
// device write-back coordinator) is responsible for writing a dirty victim
// to PM. durableBelow is the undo log's durable frontier, used by
// PreferDurable: a dirty line with LogBound ≤ durableBelow is free to leave.
func (c *Cache) Insert(ln Line, durableBelow uint64) (victim Line, evicted bool) {
	set := c.set(ln.Addr)
	// Replace in place if present.
	for i := range set {
		if set[i].valid && set[i].line.Addr == ln.Addr {
			c.useCtr++
			set[i].line = ln
			set[i].lastUse = c.useCtr
			c.index(ln)
			return Line{}, false
		}
	}
	var slotIdx = -1
	for i := range set {
		if !set[i].valid {
			slotIdx = i
			break
		}
	}
	if slotIdx < 0 {
		slotIdx = c.pickVictim(set, durableBelow)
		victim = set[slotIdx].line
		evicted = true
		if victim.Dirty {
			delete(c.dirty, victim.Addr)
			if victim.LogBound > durableBelow {
				c.DirtyEvictionsStalled.Inc()
			}
		}
	}
	c.useCtr++
	set[slotIdx] = slot{valid: true, line: ln, lastUse: c.useCtr}
	c.index(ln)
	return victim, evicted
}

// index records ln's dirty state in the dirty-address index.
func (c *Cache) index(ln Line) {
	if ln.Dirty {
		c.dirty[ln.Addr] = struct{}{}
	} else {
		delete(c.dirty, ln.Addr)
	}
}

// pickVictim applies the eviction policy to a full set.
func (c *Cache) pickVictim(set []slot, durableBelow uint64) int {
	lruOf := func(accept func(*slot) bool) int {
		best := -1
		for i := range set {
			if !accept(&set[i]) {
				continue
			}
			if best < 0 || set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
		return best
	}
	if c.policy == PlainLRU {
		return lruOf(func(*slot) bool { return true })
	}
	// PreferDurable: clean first, then durable-dirty, then any.
	if i := lruOf(func(s *slot) bool { return !s.line.Dirty }); i >= 0 {
		return i
	}
	if i := lruOf(func(s *slot) bool { return s.line.LogBound <= durableBelow }); i >= 0 {
		return i
	}
	return lruOf(func(*slot) bool { return true })
}

// MarkClean clears the dirty bit for addr (after the coordinator wrote the
// line to PM). Missing lines are ignored — the line may have been evicted.
func (c *Cache) MarkClean(addr uint64) {
	if ln := c.Peek(addr); ln != nil {
		ln.Dirty = false
		ln.LogBound = 0
		delete(c.dirty, addr)
	}
}

// Remove drops addr from the cache, returning the line if it was present.
func (c *Cache) Remove(addr uint64) (Line, bool) {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].line.Addr == addr {
			set[i].valid = false
			delete(c.dirty, addr)
			return set[i].line, true
		}
	}
	return Line{}, false
}

// ForEachDirty calls fn for every dirty line, in no particular order (the
// device sorts by address where determinism matters). fn must not insert or
// remove, and must not flip Dirty except through MarkClean after iteration.
// The walk visits only the dirty index, so persist cost scales with the
// epoch's write-back set rather than the cache geometry.
func (c *Cache) ForEachDirty(fn func(*Line)) {
	for addr := range c.dirty {
		if ln := c.Peek(addr); ln != nil && ln.Dirty {
			fn(ln)
		}
	}
}

// Len reports the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				n++
			}
		}
	}
	return n
}

// DirtyCount reports the number of dirty lines buffered.
func (c *Cache) DirtyCount() int { return len(c.dirty) }
