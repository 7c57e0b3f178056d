package leaf

import (
	"fmt"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
)

// IO is the tree engines' page I/O: the buffered pread/pwrite path §6.3.1
// profiles — one system call per request plus a per-byte copy/checksum
// charge — blocking the calling thread on the device. It holds no tree
// state, so it is called without the tree lock wherever the engine's policy
// drops it; it is also the walog.PageIO of the engine's commit log.
type IO struct {
	disk device.Disk
	sync *device.SyncIO
}

// NewIO returns the page I/O path of an engine on disk.
func NewIO(e env.Env, disk device.Disk) *IO {
	return &IO{disk: disk, sync: device.NewSyncIO(e)}
}

// Read fills buf from the pages starting at page.
func (io *IO) Read(c env.Ctx, page int64, buf []byte) {
	c.CPU(costs.Syscall + costs.PreadBytes(len(buf)))
	io.sync.Do(c, io.disk, device.Read, page, buf)
}

// Write writes buf to the pages starting at page.
func (io *IO) Write(c env.Ctx, page int64, buf []byte) {
	c.CPU(costs.Syscall + costs.PwriteBytes(len(buf)))
	io.sync.Do(c, io.disk, device.Write, page, buf)
}

// Fetch reads the leaf image at page into buf (the read overwrites all of
// it) and decodes it, charging the copy out of the buffer. The records do
// not alias buf. A damaged image panics naming the page: leaf pages are not
// the recovery source — an engine rebuilds from its log — so there
// is nothing to fall back on here.
func (io *IO) Fetch(c env.Ctx, page int64, buf []byte) ([]Entry, int) {
	io.Read(c, page, buf)
	ents, total, ok := Decode(buf)
	if !ok {
		panic(fmt.Sprintf("leaf: corrupt leaf image at page %d (%d pages)", page, len(buf)/device.PageSize))
	}
	c.CPU(costs.MemBytes(total))
	return ents, total
}
