package cluster

import "testing"

// Placement is a pure function of (slots, servers, rf): stable across calls,
// leaders in range, followers distinct ring successors of the leader.
func TestPlacementBasics(t *testing.T) {
	p := NewPlacement(4096, 8, 3)
	for slot := 0; slot < p.Slots; slot++ {
		l := p.Leader(slot)
		if l < 0 || l >= 8 {
			t.Fatalf("slot %d: leader %d out of range", slot, l)
		}
		if p.Leader(slot) != l {
			t.Fatalf("slot %d: leader changed between calls", slot)
		}
	}
	for m := 0; m < 8; m++ {
		fs := p.Followers(m)
		if len(fs) != 2 {
			t.Fatalf("machine %d: %d followers, want rf-1 = 2", m, len(fs))
		}
		seen := map[int]bool{m: true}
		for _, f := range fs {
			if f < 0 || f >= 8 || seen[f] {
				t.Fatalf("machine %d: bad follower set %v", m, fs)
			}
			seen[f] = true
		}
	}
}

// Rendezvous hashing spreads slots evenly enough that no machine owns more
// than ~15% above fair share at the default 4096-slot resolution (the 128-slot
// default was retired precisely because its ±25% imbalance capped scaling).
func TestPlacementBalance(t *testing.T) {
	p := NewPlacement(4096, 8, 1)
	counts := make([]int, 8)
	for slot := 0; slot < p.Slots; slot++ {
		counts[p.Leader(slot)]++
	}
	fair := p.Slots / 8
	for m, c := range counts {
		if c > fair*115/100 || c < fair*85/100 {
			t.Errorf("machine %d owns %d slots (fair %d): imbalance beyond 15%%: %v",
				m, c, fair, counts)
		}
	}
}

// Same key, same slot, regardless of cluster size; slots are within bounds.
func TestSlotOfDeterministic(t *testing.T) {
	a := NewPlacement(4096, 2, 1)
	b := NewPlacement(4096, 8, 1)
	keys := [][]byte{[]byte("user4839205839205839"), []byte("k"), {0}, {0xff, 0x00}}
	for _, k := range keys {
		sa, sb := a.SlotOf(k), b.SlotOf(k)
		if sa != sb {
			t.Errorf("key %q: slot differs with cluster size: %d vs %d", k, sa, sb)
		}
		if sa < 0 || sa >= 4096 {
			t.Errorf("key %q: slot %d out of range", k, sa)
		}
	}
}
