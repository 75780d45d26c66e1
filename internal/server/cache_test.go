package server

import (
	"testing"

	"sympack/internal/gen"
	"sympack/internal/matrix"
	"sympack/internal/metrics"
)

func testCache(budget int64) *lruCache {
	return newCache(budget, metrics.NewServerMetrics(metrics.NewRegistry()))
}

func TestCacheHitMissAndBudgetEviction(t *testing.T) {
	c := testCache(100)
	if _, _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	_, relA := c.put("a", "A", 40)
	relA()
	_, relB := c.put("b", "B", 40)
	relB()
	if v, rel, ok := c.get("a"); !ok || v.(string) != "A" {
		t.Fatalf("get a = %v, %v", v, ok)
	} else {
		rel()
	}
	// 40+40+40 > 100: the LRU entry must go. "b" is least recent ("a" was
	// just touched), so it is the victim.
	_, relC := c.put("c", "C", 40)
	relC()
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		v, rel, ok := c.get(k)
		if !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
		_ = v
		rel()
	}
	if bytes, entries := c.stats(); bytes != 80 || entries != 2 {
		t.Fatalf("stats = %d bytes, %d entries; want 80, 2", bytes, entries)
	}
}

func TestCacheEvictionSkipsPinnedEntries(t *testing.T) {
	c := testCache(100)
	_, relA := c.put("a", "A", 60) // stays pinned
	_, relB := c.put("b", "B", 30)
	relB()
	// Over budget: "a" is older but pinned, so "b" must be the victim and
	// the cache may run over budget only if everything is pinned.
	_, relC := c.put("c", "C", 60)
	relC()
	if _, _, ok := c.get("b"); ok {
		t.Fatal("unpinned b survived while pinned a was evictable")
	}
	if v, rel, ok := c.get("a"); !ok || v.(string) != "A" {
		t.Fatal("pinned entry was evicted from the index")
	} else {
		rel()
	}
	relA()
}

func TestCacheEvictedEntryStaysUsableByHolder(t *testing.T) {
	c := testCache(100)
	v, rel := c.put("a", []float64{1, 2, 3}, 50)
	// Force-evict while the holder is mid-flight.
	if n := c.thrash("a"); n != 1 {
		t.Fatalf("thrash evicted %d entries, want 1", n)
	}
	if _, _, ok := c.get("a"); ok {
		t.Fatal("thrashed entry still indexed")
	}
	// The holder's pointer is untouched by the eviction.
	if got := v.([]float64)[2]; got != 3 {
		t.Fatalf("evicted value corrupted: %v", got)
	}
	rel() // releasing an evicted entry must be safe
	// And re-inserting under the same key works.
	v2, rel2 := c.put("a", []float64{9}, 10)
	if v2.([]float64)[0] != 9 {
		t.Fatal("re-insert after thrash returned stale object")
	}
	rel2()
}

func TestCachePutRaceKeepsFirstObject(t *testing.T) {
	c := testCache(1000)
	first, rel1 := c.put("k", "first", 10)
	second, rel2 := c.put("k", "second", 10)
	if first.(string) != "first" || second.(string) != "first" {
		t.Fatalf("racing puts returned %v / %v; want both to share the first object", first, second)
	}
	if bytes, entries := c.stats(); entries != 1 || bytes != 10 {
		t.Fatalf("stats after racing puts = %d bytes, %d entries", bytes, entries)
	}
	rel1()
	rel2()
}

func TestPatternAndValueHashes(t *testing.T) {
	a := gen.Laplace2D(5, 5)
	b := gen.Laplace2D(5, 5)
	if patternHash(a) != patternHash(b) {
		t.Fatal("identical matrices hash to different patterns")
	}
	if valueHash(a) != valueHash(b) {
		t.Fatal("identical matrices hash to different values")
	}
	c := a.Clone()
	c.Val[0] *= 2
	if patternHash(a) != patternHash(c) {
		t.Fatal("value change altered the pattern hash")
	}
	if valueHash(a) == valueHash(c) {
		t.Fatal("value change did not alter the value hash")
	}
	d := gen.Laplace2D(5, 6)
	if patternHash(a) == patternHash(d) {
		t.Fatal("different structures share a pattern hash")
	}
}

// TestHashesPinned pins both digests of two fixed matrices: pattern ids and
// factor ids are client-visible cache keys, so the bytes they hash must not
// change with how they are streamed. Thermal2D 40²'s arrays (24 KB of
// pattern, 36 KB of values) span several hashChunk buffers.
func TestHashesPinned(t *testing.T) {
	for _, c := range []struct {
		a               *matrix.SparseSym
		pattern, values string
	}{
		{gen.Thermal2D(40, 40, 3, 7), "92ad95c0629a3634", "4aec3f24a6daf5c8"},
		{gen.Laplace2D(3, 3), "29370b3f2d9ee828", "68e33002350ee65b"},
	} {
		if p, v := patternHash(c.a), valueHash(c.a); p != c.pattern || v != c.values {
			t.Errorf("n=%d: hashes %s/%s, want %s/%s", c.a.N, p, v, c.pattern, c.values)
		}
	}
	a := gen.Thermal2D(40, 40, 3, 7)
	if allocs := testing.AllocsPerRun(5, func() { patternHash(a); valueHash(a) }); allocs > 12 {
		t.Errorf("hashing allocates %.0f objects, want a fixed handful", allocs)
	}
}
