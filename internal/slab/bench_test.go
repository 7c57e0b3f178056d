package slab

import (
	"testing"

	"kvell/internal/device"
)

func BenchmarkEncodeItem1K(b *testing.B) {
	s := newSlab(1024)
	buf := make([]byte, 1024)
	key := []byte("user000000000000001")
	val := make([]byte, 1024-HeaderSize-len(key))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeItem(buf, uint64(i), key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSlot1K(b *testing.B) {
	s := newSlab(1024)
	buf := make([]byte, 1024)
	key := []byte("user000000000000001")
	val := make([]byte, 1024-HeaderSize-len(key))
	s.EncodeItem(buf, 1, key, val)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d, err := s.DecodeSlot(buf); err != nil || d.Kind != Live {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkEncodeMultiPage(b *testing.B) {
	s := newSlab(4 * device.PageSize)
	buf := make([]byte, 4*device.PageSize)
	key := []byte("user000000000000001")
	val := make([]byte, 3*PagePayload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeItem(buf, uint64(i), key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeItem1KValue encodes a 1 KB value into a 2048-byte stride,
// the shape of every item of the end-to-end benchmark: most of the cost is
// zeroing the slot's tail.
func BenchmarkEncodeItem1KValue(b *testing.B) {
	s := newSlab(2048)
	buf := make([]byte, 2048)
	key := []byte("user000000000000001")
	val := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeItem(buf, uint64(i), key, val); err != nil {
			b.Fatal(err)
		}
	}
}
