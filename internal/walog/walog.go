// Package walog is the page-aligned, checksummed write-ahead log of the
// three log-based baselines (lsm, wtree, betree): the on-disk format and its
// scanner here, the group-commit writer and the replayer (Log) in log.go. A
// log is a dense sequence of chunks starting at a fixed base page; each
// chunk is one flushed group of records, padded to a page boundary:
//
//	magic(8) | payloadLen(4) | count(4) | fnv64a(payload)(8) | payload | pad
//
// and each record in the payload is
//
//	op(1) | klen(2) | vlen(4) | key | value
//
// The checksum is what makes crash recovery sound under the ≤1-page
// atomicity model: a torn chunk (some of its pages persisted, some not)
// fails verification and Scan stops there. Log keeps at most one chunk
// write in flight, so the log's valid prefix always holds every group whose
// chunk completed: with a group size of 0, every acknowledged record.
package walog

import (
	"encoding/binary"
	"hash/fnv"

	"kvell/internal/device"
)

// Reader is the page source Scan replays from. device.Store satisfies it
// directly (untimed, host-side replay); Log.Replay passes an adapter over
// its engine's timed read path to charge recovery I/O to virtual time.
type Reader interface {
	ReadPages(page int64, buf []byte) error
}

// Magic marks a valid chunk header.
const Magic = 0x4B56574C4F473031 // "KVWLOG01"

// HeaderSize is the fixed chunk header length.
const HeaderSize = 24

// RecordHeader is the per-record header length.
const RecordHeader = 7

// Record ops.
const (
	OpPut    = 1
	OpDelete = 2
)

// AppendRecord appends one record to a chunk payload buffer.
func AppendRecord(payload []byte, op byte, key, value []byte) []byte {
	var hdr [RecordHeader]byte
	hdr[0] = op
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(value)))
	payload = append(payload, hdr[:]...)
	payload = append(payload, key...)
	return append(payload, value...)
}

// ChunkPages returns the page count of a chunk carrying payloadLen bytes.
func ChunkPages(payloadLen int) int64 {
	return int64((HeaderSize + payloadLen + device.PageSize - 1) / device.PageSize)
}

// EncodeChunk serializes a chunk into dst (reused if large enough) and
// returns the page-aligned encoding.
func EncodeChunk(dst, payload []byte, count int) []byte {
	need := int(ChunkPages(len(payload))) * device.PageSize
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	h := fnv.New64a()
	h.Write(payload)
	binary.LittleEndian.PutUint64(dst[0:8], Magic)
	binary.LittleEndian.PutUint32(dst[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[12:16], uint32(count))
	binary.LittleEndian.PutUint64(dst[16:24], h.Sum64())
	n := copy(dst[HeaderSize:], payload)
	// Zero the padding: the encode buffer is recycled across chunks and
	// stale bytes must not reach the device.
	clear(dst[HeaderSize+n:])
	return dst
}

// Scan replays the log at basePage, calling fn for every record of every
// valid chunk in order. It stops — without error — at the first chunk that
// fails validation (bad magic, impossible length, or checksum mismatch):
// under the single-writer discipline that chunk is the torn tail. maxPages
// bounds the scan (the log region size). Returns the number of pages of
// valid log consumed.
func Scan(store Reader, basePage, maxPages int64, fn func(op byte, key, value []byte)) int64 {
	hdr := make([]byte, device.PageSize)
	var chunk []byte
	page := int64(0)
	for page < maxPages {
		if err := store.ReadPages(basePage+page, hdr); err != nil {
			panic("walog: scan read failed: " + err.Error())
		}
		if binary.LittleEndian.Uint64(hdr[0:8]) != Magic {
			break
		}
		payloadLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		count := int(binary.LittleEndian.Uint32(hdr[12:16]))
		want := binary.LittleEndian.Uint64(hdr[16:24])
		pages := ChunkPages(payloadLen)
		if payloadLen <= 0 || page+pages > maxPages {
			break
		}
		if cap(chunk) < int(pages)*device.PageSize {
			chunk = make([]byte, pages*device.PageSize)
		}
		chunk = chunk[:pages*device.PageSize]
		if pages == 1 {
			copy(chunk, hdr)
		} else {
			if err := store.ReadPages(basePage+page, chunk); err != nil {
				panic("walog: scan read failed: " + err.Error())
			}
		}
		payload := chunk[HeaderSize : HeaderSize+payloadLen]
		h := fnv.New64a()
		h.Write(payload)
		if h.Sum64() != want {
			break // torn tail
		}
		ok := true
		for i := 0; i < count; i++ {
			if len(payload) < RecordHeader {
				ok = false
				break
			}
			op := payload[0]
			klen := int(binary.LittleEndian.Uint16(payload[1:3]))
			vlen := int(binary.LittleEndian.Uint32(payload[3:7]))
			payload = payload[RecordHeader:]
			if len(payload) < klen+vlen {
				ok = false
				break
			}
			fn(op, payload[:klen], payload[klen:klen+vlen])
			payload = payload[klen+vlen:]
		}
		if !ok {
			break
		}
		page += pages
	}
	return page
}
