package kvell

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemoryStoreBasics(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("hello"))
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("nope")); ok {
		t.Fatal("found missing key")
	}
	existed, err := db.Delete([]byte("hello"))
	if err != nil || !existed {
		t.Fatal("delete failed")
	}
	if st := db.Stats(); st.Items != 0 {
		t.Fatalf("items = %d", st.Items)
	}
}

func TestScanAPI(t *testing.T) {
	db, err := Open(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	items, err := db.Scan([]byte("key-050"), 10)
	if err != nil || len(items) != 10 {
		t.Fatalf("scan: %d items, %v", len(items), err)
	}
	for j, it := range items {
		want := fmt.Sprintf("key-%03d", 50+j)
		if string(it.Key) != want {
			t.Fatalf("scan[%d] = %q, want %q", j, it.Key, want)
		}
	}
	items, err = db.ScanRange([]byte("key-010"), []byte("key-013"))
	if err != nil || len(items) != 3 {
		t.Fatalf("range scan: %d items", len(items))
	}
}

// Scan results belong to the caller: writing into a returned key or value
// must not reach the store. (Keys used to alias the index's own key bytes,
// so this edit renamed k010 inside the index.)
func TestScanResultsAreCallerOwned(t *testing.T) {
	db, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 30; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		scan func() ([]Item, error)
	}{
		{"Scan", func() ([]Item, error) { return db.Scan([]byte("k010"), 5) }},
		{"ScanRange", func() ([]Item, error) { return db.ScanRange([]byte("k010"), []byte("k015")) }},
	} {
		name, scan := tc.name, tc.scan
		items, err := scan()
		if err != nil || len(items) != 5 {
			t.Fatalf("%s: %d items, %v", name, len(items), err)
		}
		items[0].Key[0], items[0].Value[0] = 'z', 'z'
		if v, ok, _ := db.Get([]byte("k010")); !ok || string(v) != "v010" {
			t.Fatalf("after writing into a %s result, Get(k010) = %q, found=%v", name, v, ok)
		}
		if again, _ := scan(); string(again[0].Key) != "k010" || string(again[0].Value) != "v010" {
			t.Fatalf("after writing into a %s result, a rescan starts at %q = %q", name, again[0].Key, again[0].Value)
		}
	}
}

func TestFileStorePersistsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.kvell")
	db, err := Open(Options{Path: path, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete([]byte("k0007"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok, _ := db2.Get([]byte(k))
		if i == 7 {
			if ok {
				t.Fatal("deleted key recovered")
			}
			continue
		}
		if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 300)) {
			t.Fatalf("key %s lost across reopen (ok=%v)", k, ok)
		}
	}
	if st := db2.Stats(); st.Items != 199 {
		t.Fatalf("items after recovery = %d", st.Items)
	}
}

func TestConcurrentClients(t *testing.T) {
	db, err := Open(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("g%d-k%04d", g, i))
				if err := db.Put(k, k); err != nil {
					errs <- err
					return
				}
				v, ok, err := db.Get(k)
				if err != nil || !ok || !bytes.Equal(v, k) {
					errs <- fmt.Errorf("goroutine %d: readback failed at %d", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Items != 1600 {
		t.Fatalf("items = %d", st.Items)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put on closed = %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get on closed = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestLargeValuesRoundTrip(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, n := range []int{10, 1000, 5000, 20000} {
		v := bytes.Repeat([]byte{0x5A}, n)
		k := []byte(fmt.Sprintf("size-%d", n))
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
		got, ok, _ := db.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("size %d roundtrip failed", n)
		}
	}
}
