// Package freelist implements KVell's bounded in-memory free list (§5.3):
// for each slab, at most N freed slot positions are kept in memory. Each
// in-memory entry is the head of an on-disk stack: when an (N+1)th slot is
// freed, its on-disk tombstone is made to point at an existing head, which
// it replaces in memory. This bounds memory while letting a worker reuse up
// to N free spots per I/O batch without extra disk reads.
package freelist

// NoSlot is the nil value for slot chain pointers.
const NoSlot = ^uint64(0)

// List is a bounded set of free-slot stack heads. Not safe for concurrent
// use (KVell keeps one per slab per worker).
type List struct {
	max   int
	heads []uint64
	next  int // round-robin replacement cursor
	// freed counts total pushes; reused counts total pops (stats).
	freed, reused int64
}

// New returns a list keeping at most max heads in memory (the paper's N,
// 64 by default elsewhere).
func New(max int) *List {
	if max < 1 {
		max = 1
	}
	return &List{max: max}
}

// Len returns the number of in-memory heads.
func (l *List) Len() int { return len(l.heads) }

// Max returns the head capacity N.
func (l *List) Max() int { return l.max }

// Freed and Reused return cumulative counters.
func (l *List) Freed() int64  { return l.freed }
func (l *List) Reused() int64 { return l.reused }

// Push records that slot was freed. If the in-memory head set is full, an
// existing head is displaced and returned: the caller must write slot's
// on-disk tombstone with a pointer to chainTo. Otherwise chainTo is NoSlot
// and the tombstone carries no pointer.
func (l *List) Push(slot uint64) (chainTo uint64) {
	l.freed++
	if len(l.heads) < l.max {
		l.heads = append(l.heads, slot)
		return NoSlot
	}
	old := l.heads[l.next]
	l.heads[l.next] = slot
	l.next = (l.next + 1) % l.max
	return old
}

// PushHead inserts a head without chaining: a popped slot's on-disk
// tombstone revealed the next stack element, or recovery found a free slot.
// If the head set is full it drops slot and reports false. A chain tail
// dropped this way stays on disk, unreachable and unused, until recovery
// rebuilds the lists.
func (l *List) PushHead(slot uint64) bool {
	if len(l.heads) >= l.max {
		return false
	}
	l.heads = append(l.heads, slot)
	return true
}

// Heads returns a copy of the current in-memory head slots (consistency
// checking: a head must never point at a live, indexed slot).
func (l *List) Heads() []uint64 {
	out := make([]uint64, len(l.heads))
	copy(out, l.heads)
	return out
}

// Pop removes and returns a head for reuse. The caller is responsible for
// recovering the on-disk chain pointer of the popped slot (if any) via
// PushHead once it reads the slot's page.
func (l *List) Pop() (slot uint64, ok bool) {
	if len(l.heads) == 0 {
		return 0, false
	}
	n := len(l.heads) - 1
	slot = l.heads[n]
	l.heads = l.heads[:n]
	if l.next > n {
		l.next = 0
	}
	l.reused++
	return slot, true
}
