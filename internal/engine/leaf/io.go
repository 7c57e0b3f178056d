package leaf

import (
	"fmt"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
)

// Fetch reads the leaf image at page into buf through the engine's buffered
// I/O (the read overwrites all of it) and decodes it, charging the copy out
// of the buffer. The records do not alias buf. A damaged image panics naming
// the page: leaf pages are not the recovery source — an engine rebuilds from
// its log — so there is nothing to fall back on here.
func Fetch(c env.Ctx, io *device.BufferedIO, page int64, buf []byte) ([]Entry, int) {
	io.Read(c, page, buf)
	ents, total, ok := Decode(buf)
	if !ok {
		panic(fmt.Sprintf("leaf: corrupt leaf image at page %d (%d pages)", page, len(buf)/device.PageSize))
	}
	c.CPU(costs.MemBytes(total))
	return ents, total
}
