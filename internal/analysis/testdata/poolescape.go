// poolescape fixture: arena- and pool-derived buffers must not escape into
// fields, globals, maps, or channels without a copy. The stand-in Arena and
// Request types resolve like the real slab.Arena / kv.Request.
package fixture

type Arena struct{}

func (a *Arena) Alloc(n int) []byte { return make([]byte, n) }

type Item struct{ Key, Value []byte }

type Request struct {
	ScanBuf  []Item
	ValueBuf []byte
}

type holder struct{ buf []byte }

// arenaOwner holds the arena itself; parking arena memory in its own
// fields is the sanctioned arena-scoped-container pattern.
type arenaOwner struct {
	arena *Arena
	pages [][]byte
}

var global []byte

func fieldEscape(a *Arena, h *holder) {
	b := a.Alloc(10)
	h.buf = b                         // want poolescape
	h.buf = append([]byte(nil), b...) // copy: fine
}

func globalEscape(a *Arena) {
	global = a.Alloc(4)[:2] // want poolescape
}

func mapChanEscape(a *Arena, m map[int][]byte, ch chan []byte) {
	b := a.Alloc(1)
	m[0] = b // want poolescape
	ch <- b  // want poolescape
}

func aliasEscape(a *Arena, h *holder) {
	b := a.Alloc(8)
	c := b[2:4]
	h.buf = c // want poolescape
}

func appendElementEscape(a *Arena) {
	var lists [][]byte
	lists = append(lists, a.Alloc(4)) // taints lists (element retained)
	global = lists[0]                 // want poolescape
	globalLists = lists               // want poolescape
}

var globalLists [][]byte

func scratchEscape(r *Request, h *holder) {
	h.buf = r.ValueBuf // want poolescape
}

// --- negative cases ---

// The give-back protocol: engines return (possibly regrown) scratch to the
// request that owns it.
func giveBack(r *Request) {
	items := r.ScanBuf[:0]
	items = append(items, Item{})
	r.ScanBuf = items
	r.ValueBuf = append(r.ValueBuf[:0], 1, 2)
}

// Arena-scoped container: the struct owns the arena, so retaining its
// memory is lifetime-coherent.
func owned(o *arenaOwner) {
	p := o.arena.Alloc(4096)
	o.pages = append(o.pages, p)
}

// Spreading copies contents into owned memory.
func spreadCopy(a *Arena, h *holder) {
	b := a.Alloc(3)
	dst := make([]byte, 0, 3)
	dst = append(dst, b...)
	h.buf = dst
}

// Passing to a call is a handoff to code that is itself checked, and any
// non-append call result is owned memory.
func callsCleanse(a *Arena, h *holder) {
	b := a.Alloc(5)
	h.buf = clone(b)
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
