package freelist

import (
	"testing"
	"testing/quick"
)

func TestPushPopLIFO(t *testing.T) {
	l := New(4)
	for i := uint64(0); i < 3; i++ {
		if chain := l.Push(i); chain != NoSlot {
			t.Fatalf("Push(%d) chained while under capacity", i)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	for want := uint64(2); ; want-- {
		got, ok := l.Pop()
		if !ok {
			if want != ^uint64(0) {
				t.Fatalf("list drained early at want=%d", want)
			}
			break
		}
		if got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		if want == 0 {
			if _, ok := l.Pop(); ok {
				t.Fatal("Pop from empty succeeded")
			}
			break
		}
	}
}

func TestPushChainsWhenFull(t *testing.T) {
	l := New(2)
	l.Push(10)
	l.Push(11)
	if chain := l.Push(12); chain != 10 {
		t.Fatalf("third push: chain=%d, want chain to displaced head 10", chain)
	}
	if chain := l.Push(13); chain != 11 {
		t.Fatalf("fourth push: chain=%d, want 11 (round robin)", chain)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want bounded at 2", l.Len())
	}
}

func TestPushHeadRespectsBound(t *testing.T) {
	l := New(2)
	if !l.PushHead(1) || !l.PushHead(2) {
		t.Fatal("PushHead under capacity failed")
	}
	if l.PushHead(3) {
		t.Fatal("PushHead above capacity succeeded")
	}
}

func TestBoundProperty(t *testing.T) {
	// Property: len never exceeds max; freed == reused + len + chained.
	f := func(maxRaw uint8, ops []uint16) bool {
		max := int(maxRaw%16) + 1
		l := New(max)
		chained := int64(0)
		for _, op := range ops {
			if op%3 == 0 {
				if _, ok := l.Pop(); ok {
					// popped
				}
			} else {
				if l.Push(uint64(op)) != NoSlot {
					chained++
				}
			}
			if l.Len() > max {
				return false
			}
		}
		return l.Freed() == l.Reused()+int64(l.Len())+chained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
