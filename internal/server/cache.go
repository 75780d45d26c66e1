package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"sympack/internal/matrix"
	"sympack/internal/metrics"
	"sympack/internal/symbolic"
)

// patternHash fingerprints the sparsity structure of a matrix — dimension,
// column pointers and row indices, never values — so analyses are shared
// across same-structure matrices (the PEXSI reuse pattern of paper §5.3).
// The hex-truncated digest doubles as the client-visible pattern id.
func patternHash(a *matrix.SparseSym) string {
	h := sha256.New()
	var dim [8]byte
	binary.LittleEndian.PutUint64(dim[:], uint64(a.N))
	h.Write(dim[:])
	h.Write(int32Bytes(a.ColPtr))
	h.Write(int32Bytes(a.RowInd))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// valueHash fingerprints the numeric values. A Factor is keyed by
// pattern+values: two matrices with the same structure but different
// entries must never share a cached factor.
func valueHash(a *matrix.SparseSym) string {
	h := sha256.New()
	buf := make([]byte, 8*len(a.Val))
	for i, v := range a.Val {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func int32Bytes(s []int32) []byte {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// analysisBytes estimates the retained size of a cached analysis (the
// symbolic structure). It is a budget estimate, not an accounting
// guarantee: the dominant arrays (row index lists, block tables) are
// counted, fixed per-object overheads are not.
func analysisBytes(st *symbolic.Structure) int64 {
	b := int64(st.NnzL) * 4 // supernode row lists are int32
	b += int64(len(st.Blocks)) * 32
	b += int64(st.N) * 12 // perm, iperm, snof
	return b
}

// factorBytes estimates the retained size of a cached Factor: the dense
// block storage dominates everything else.
func factorBytes(data [][]float64) int64 {
	var b int64
	for _, blk := range data {
		b += int64(len(blk)) * 8
	}
	return b
}

// entry is one cached object. pins counts in-flight requests holding it;
// elem is its LRU slot, nil once the entry has been evicted. Eviction only
// detaches the entry from the cache's index — holders keep using the
// object through their own pointer and the garbage collector reclaims it
// when the last pin drops, so an eviction can never invalidate a request
// that is mid-solve on the factor.
type entry struct {
	key  string
	size int64
	val  any
	pins int
	elem *list.Element
}

// lruCache is the byte-budgeted LRU over Analysis and Factor objects,
// keyed by pattern (and, for factors, value) hash. All state is guarded by
// mu; the stored objects themselves are immutable after insertion.
type lruCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *entry
	items  map[string]*entry
	met    *metrics.ServerMetrics
}

func newCache(budget int64, met *metrics.ServerMetrics) *lruCache {
	return &lruCache{budget: budget, ll: list.New(), items: map[string]*entry{}, met: met}
}

// get returns the cached object under key, pinned. The returned release
// function must be called exactly once when the request is done with the
// object. ok is false on a miss (and release is nil).
func (c *lruCache) get(key string) (val any, release func(), ok bool) {
	c.mu.Lock()
	e := c.items[key]
	if e == nil {
		c.mu.Unlock()
		c.met.CacheMisses.Inc()
		return nil, nil, false
	}
	c.pinLocked(e)
	if e.elem != nil {
		c.ll.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	c.met.CacheHits.Inc()
	return e.val, c.releaseFn(e), true
}

// put inserts (or re-pins an already-present) object and returns it pinned.
// Insertion may evict least-recently-used entries to honor the byte budget;
// see entry for why eviction is safe against concurrent holders.
func (c *lruCache) put(key string, val any, size int64) (stored any, release func()) {
	c.mu.Lock()
	if e := c.items[key]; e != nil {
		// Two requests raced on the same miss; keep the first object so
		// every holder shares one copy.
		c.pinLocked(e)
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return e.val, c.releaseFn(e)
	}
	e := &entry{key: key, size: size, val: val}
	e.elem = c.ll.PushFront(e)
	c.items[key] = e
	c.bytes += size
	c.pinLocked(e)
	c.evictLocked()
	c.publishLocked()
	c.mu.Unlock()
	return val, c.releaseFn(e)
}

// thrash force-evicts the given keys — the CacheThrash chaos hook — and
// reports how many were present.
func (c *lruCache) thrash(keys ...string) int {
	c.mu.Lock()
	n := 0
	for _, k := range keys {
		if e := c.items[k]; e != nil {
			c.dropLocked(e)
			n++
		}
	}
	c.publishLocked()
	c.mu.Unlock()
	return n
}

// pinLocked takes one pin on e (mu held).
func (c *lruCache) pinLocked(e *entry) {
	e.pins++
	c.met.CachePinned.Add(1)
}

// releaseFn builds the idempotence-unchecked unpin closure for e.
func (c *lruCache) releaseFn(e *entry) func() {
	return func() {
		c.mu.Lock()
		e.pins--
		c.mu.Unlock()
		c.met.CachePinned.Add(-1)
	}
}

// evictLocked drops LRU entries until the budget holds. Pinned entries are
// skipped — they are in active use and would be re-fetched immediately —
// unless every remaining entry is pinned, in which case the cache simply
// runs over budget until pins drop (the budget is advisory, correctness
// is not).
func (c *lruCache) evictLocked() {
	for c.bytes > c.budget {
		var victim *entry
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.pins == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.dropLocked(victim)
	}
}

// dropLocked detaches e from the index and LRU list (mu held).
func (c *lruCache) dropLocked(e *entry) {
	if e.elem != nil {
		c.ll.Remove(e.elem)
		e.elem = nil
	}
	delete(c.items, e.key)
	c.bytes -= e.size
	c.met.CacheEvictions.Inc()
}

// publishLocked refreshes the occupancy gauges (mu held).
func (c *lruCache) publishLocked() {
	c.met.CacheBytes.Set(float64(c.bytes))
	c.met.CacheEntries.Set(float64(len(c.items)))
}

// stats returns the current occupancy for health reports.
func (c *lruCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.items)
}
