package pagecache

import "testing"

// TestAllocBudgetPagecacheHit pins the hit path (lookup + LRU promotion)
// at zero allocations.
func TestAllocBudgetPagecacheHit(t *testing.T) {
	c := New(1024, IndexBTree)
	for i := int64(0); i < 1024; i++ {
		c.Insert(i, nil)
	}
	i := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Get(i % 1024)
		i += 37
	}); n != 0 {
		t.Errorf("Get hit allocates %v per lookup, want 0", n)
	}
}

// TestAllocBudgetPagecacheMiss pins the miss probe at zero allocations.
func TestAllocBudgetPagecacheMiss(t *testing.T) {
	c := New(1024, IndexBTree)
	for i := int64(0); i < 1024; i++ {
		c.Insert(i, nil)
	}
	i := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Get(1024 + i%1024)
		i += 37
	}); n != 0 {
		t.Errorf("Get miss allocates %v per lookup, want 0", n)
	}
}

// TestAllocBudgetPagecacheEvictCycle pins the steady-state insert+evict
// cycle at zero allocations, with either index: the B-tree copies each new
// page key into its node's own key bytes.
func TestAllocBudgetPagecacheEvictCycle(t *testing.T) {
	for _, kind := range []struct {
		name string
		idx  IndexKind
	}{{"hash", IndexHash}, {"btree", IndexBTree}} {
		t.Run(kind.name, func(t *testing.T) {
			c := New(512, kind.idx)
			buf := PageBuf()
			for i := int64(0); i < 512; i++ {
				c.Insert(i, buf)
			}
			i := int64(512)
			// Warm: cycle the window once so the probe table (or the tree's
			// nodes) reaches steady state.
			for j := 0; j < 2048; j++ {
				_, data := c.InsertTake(i%2048, buf)
				_ = data
				i++
			}
			if n := testing.AllocsPerRun(1000, func() {
				_, data := c.InsertTake(i%2048, buf)
				_ = data
				i++
			}); n != 0 {
				t.Errorf("InsertTake evict cycle allocates %v per insert, want 0", n)
			}
		})
	}
}

// ---- eviction edge cases for the open-addressing + intrusive-LRU rewrite ----

func TestEvictCapacityOne(t *testing.T) {
	c := New(1, IndexBTree)
	a, b := page('a'), page('b')
	if ev := c.Insert(1, a); ev != -1 {
		t.Fatalf("first insert evicted %d", ev)
	}
	ev, data := c.InsertTake(2, b)
	if ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	if &data[0] != &a[0] {
		t.Fatal("evicted data is not page 1's buffer")
	}
	if c.Get(1) != nil {
		t.Fatal("page 1 still cached after eviction")
	}
	if got := c.Get(2); got == nil || &got[0] != &b[0] {
		t.Fatal("page 2 not cached")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestReinsertEvictedPage(t *testing.T) {
	c := New(1, IndexBTree)
	a, b := page('a'), page('b')
	c.Insert(1, a)
	c.Insert(2, b)                 // evicts 1
	ev, data := c.InsertTake(1, a) // re-insert the evicted page
	if ev != 2 {
		t.Fatalf("evicted = %d, want 2", ev)
	}
	if &data[0] != &b[0] {
		t.Fatal("evicted data is not page 2's buffer")
	}
	if got := c.Get(1); got == nil || got[0] != 'a' {
		t.Fatal("re-inserted page 1 not retrievable")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestPinDuringEvict(t *testing.T) {
	c := New(2, IndexBTree)
	a, b, d := page('a'), page('b'), page('d')
	c.Insert(1, a)
	c.Insert(2, b) // LRU order: 2 (MRU), 1 (tail)
	c.Pin(1)
	ev, data := c.InsertTake(3, d)
	if ev != 2 {
		t.Fatalf("evicted = %d, want 2 (pinned tail must be skipped)", ev)
	}
	if &data[0] != &b[0] {
		t.Fatal("evicted data is not page 2's buffer")
	}
	if !c.Contains(1) { // Contains: don't promote 1 off the LRU tail
		t.Fatal("pinned page 1 was evicted")
	}
	c.Unpin(1)
	if ev := c.Insert(4, page('e')); ev != 1 {
		t.Fatalf("after Unpin, evicted = %d, want 1", ev)
	}
}

func TestAllPinnedNoEvict(t *testing.T) {
	c := New(1, IndexBTree)
	c.Insert(1, page('a'))
	c.Pin(1)
	ev, data := c.InsertTake(2, page('b'))
	if ev != -1 || data != nil {
		t.Fatalf("evicted = %d with fully pinned cache, want -1", ev)
	}
	// The cache grows past capacity rather than dropping a pinned page.
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Get(1) == nil || c.Get(2) == nil {
		t.Fatal("both pages must stay resident")
	}
}
