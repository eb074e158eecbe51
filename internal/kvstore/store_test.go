package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	if err := s.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
	// Overwrite.
	s.Put([]byte("k2"), []byte("a"))
	s.Put([]byte("k2"), []byte("b"))
	v, _ = s.Get([]byte("k2"))
	if string(v) != "b" {
		t.Fatalf("overwrite: got %q", v)
	}
}

func TestHas(t *testing.T) {
	s := openTest(t, Options{})
	s.Put([]byte("x"), []byte("1"))
	if ok, _ := s.Has([]byte("x")); !ok {
		t.Fatal("Has(x) = false")
	}
	if ok, _ := s.Has([]byte("y")); ok {
		t.Fatal("Has(y) = true")
	}
}

func TestEmptyValueIsNotNotFound(t *testing.T) {
	s := openTest(t, Options{})
	s.Put([]byte("empty"), nil)
	v, err := s.Get([]byte("empty"))
	if err != nil {
		t.Fatalf("empty value: %v", err)
	}
	if len(v) != 0 {
		t.Fatalf("v = %q", v)
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	s := openTest(t, Options{})
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("c"))
	if b.Len() != 3 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		v, err := s.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("%s = %q, %v", k, v, err)
		}
	}
	// Empty batch is a no-op.
	if err := s.Apply(&Batch{}); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	s := openTest(t, Options{})
	keys := []string{"e", "a", "c", "b", "d"}
	for _, k := range keys {
		s.Put([]byte(k), []byte("v-"+k))
	}
	var got []string
	err := s.Scan([]byte("b"), []byte("e"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	// Early stop.
	got = nil
	s.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early stop scan = %v", got)
	}
}

func TestScanPrefix(t *testing.T) {
	s := openTest(t, Options{})
	for _, k := range []string{"idx/a/1", "idx/a/2", "idx/b/1", "other"} {
		s.Put([]byte(k), []byte("x"))
	}
	var got []string
	s.ScanPrefix([]byte("idx/a/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "idx/a/1" || got[1] != "idx/a/2" {
		t.Fatalf("prefix scan = %v", got)
	}
}

func TestFlushAndReadFromTable(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tables != 1 || st.MemtableKeys != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	v, err := s.Get([]byte("key-042"))
	if err != nil || string(v) != "val-42" {
		t.Fatalf("table read = %q, %v", v, err)
	}
	// Scan across table.
	count := 0
	s.Scan(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 100 {
		t.Fatalf("scan count = %d", count)
	}
	// Flush of empty memtable is a no-op.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Tables != 1 {
		t.Fatal("empty flush created a table")
	}
}

func TestMemtableShadowsTable(t *testing.T) {
	s := openTest(t, Options{})
	s.Put([]byte("k"), []byte("old"))
	s.Flush()
	s.Put([]byte("k"), []byte("new"))
	v, _ := s.Get([]byte("k"))
	if string(v) != "new" {
		t.Fatalf("got %q, want new", v)
	}
	// Deletion in memtable shadows table value.
	s.Delete([]byte("k"))
	if _, err := s.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatal("tombstone did not shadow table")
	}
	// And scan agrees.
	count := 0
	s.Scan(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan sees %d keys, want 0", count)
	}
}

func TestTombstoneAcrossFlush(t *testing.T) {
	s := openTest(t, Options{})
	s.Put([]byte("k"), []byte("v"))
	s.Flush()
	s.Delete([]byte("k"))
	s.Flush() // tombstone now in a newer table
	if _, err := s.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatal("tombstone lost across flush")
	}
}

func TestCompactionMergesAndDropsTombstones(t *testing.T) {
	s := openTest(t, Options{DisableAutoCompact: true})
	for gen := 0; gen < 4; gen++ {
		for i := 0; i < 50; i++ {
			s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("gen-%d", gen)))
		}
		s.Delete([]byte(fmt.Sprintf("key-%03d", gen))) // delete a few
		s.Flush()
	}
	if st := s.Stats(); st.Tables != 4 {
		t.Fatalf("tables = %d, want 4", st.Tables)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tables != 1 {
		t.Fatalf("tables after compact = %d", st.Tables)
	}
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d", st.Compactions)
	}
	// 50 keys minus 4 deleted (keys 0..3 deleted in later gens... key-000
	// deleted in gen 0 then re-put in gens 1-3, so only key-003 stays dead).
	v, err := s.Get([]byte("key-010"))
	if err != nil || string(v) != "gen-3" {
		t.Fatalf("key-010 = %q, %v (latest gen must win)", v, err)
	}
	if _, err := s.Get([]byte("key-003")); !errors.Is(err, ErrNotFound) {
		t.Fatal("key-003 should be deleted")
	}
	// Tombstones must be gone from the merged table.
	if st.TableEntries != 49 {
		t.Fatalf("table entries = %d, want 49 live keys", st.TableEntries)
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	s := openTest(t, Options{MaxTables: 2})
	for gen := 0; gen < 4; gen++ {
		s.Put([]byte(fmt.Sprintf("k%d", gen)), []byte("v"))
		s.Flush()
	}
	if st := s.Stats(); st.Tables > 3 {
		t.Fatalf("auto-compaction did not run: %d tables", st.Tables)
	}
}

func TestReopenPersistsEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Flush() // half in table
	for i := 200; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete([]byte("key-0000"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 1; i < 300; i++ {
		v, err := s2.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key-%04d after reopen = %q, %v", i, v, err)
		}
	}
	if _, err := s2.Get([]byte("key-0000")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deletion lost across reopen")
	}
}

func TestCrashRecoveryWithoutClose(t *testing.T) {
	// Simulate a crash: never call Close; the WAL (written synchronously
	// at the OS level) must reconstruct the memtable.
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("data/1"), []byte("tuple-set-bytes"))
	b.Put([]byte("prov/1"), []byte("provenance-record"))
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	// Abandon s (crash). Reopen.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Both or neither: the batch is atomic.
	_, err1 := s2.Get([]byte("data/1"))
	_, err2 := s2.Get([]byte("prov/1"))
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("atomicity violated: data=%v prov=%v", err1, err2)
	}
	if err1 != nil {
		t.Fatal("synchronously written batch lost")
	}
}

func TestTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	s.Close()

	// Corrupt the WAL tail: chop off the last 3 bytes.
	walPath := filepath.Join(dir, walName(1))
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// First record survives; second (torn) is gone.
	if v, err := s2.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, err)
	}
	if _, err := s2.Get([]byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatal("torn record resurrected")
	}
	// The store remains writable.
	if err := s2.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
}

func TestTmpFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	s.Put([]byte("k"), []byte("v"))
	s.Close()
	// Simulate a crash mid-flush: a stray .tmp file.
	tmp := filepath.Join(dir, "sst-000000000099.sst.tmp")
	os.WriteFile(tmp, []byte("partial"), 0o644)
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp file survived open")
	}
}

func TestCorruptTableDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte("v"), 50))
	}
	s.Flush()
	s.Close()

	// Flip a byte in the table's data region.
	var sstPath string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".sst" {
			sstPath = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(sstPath)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0xFF
	os.WriteFile(sstPath, data, 0o644)

	// With verification on, open must fail.
	if _, err := Open(dir, Options{VerifyChecksums: true}); err == nil {
		t.Fatal("corrupt table accepted with VerifyChecksums")
	}
}

// A table entry that fails to decode is an error from Scan and Compact,
// not the end of the table: a merge that stopped there would return a
// short result, and a compaction would write the survivors and delete
// the corrupt table with everything after the bad entry.
func TestCorruptEntrySurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 100; i++ {
			s.Put([]byte(fmt.Sprintf("g%d-%03d", gen, i)), []byte("v"))
		}
		s.Flush()
	}
	s.Close()
	// Each entry of the older table is 10 bytes; give the 50th a key
	// length far past the end of the entry region.
	paths, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	sort.Strings(paths)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data[500:], []byte{0xff, 0xff, 0x7f})
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if s, err = Open(dir, Options{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Scan(nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrBadTable) {
		t.Fatalf("Scan over a corrupt entry = %v, want ErrBadTable", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrBadTable) {
		t.Fatalf("Compact over a corrupt entry = %v, want ErrBadTable", err)
	}
	if st := s.Stats(); st.Tables != 2 {
		t.Fatalf("%d tables after a failed Compact, want both inputs kept", st.Tables)
	}
	if v, err := s.Get([]byte("g1-099")); err != nil || string(v) != "v" {
		t.Fatalf("Get from the intact table = %q, %v", v, err)
	}
}

func TestWALGrowsAndRotates(t *testing.T) {
	s := openTest(t, Options{MemtableBytes: 4 << 10})
	before := s.Stats().WALSize
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("x"), 64))
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("small memtable never flushed")
	}
	// WAL rotated: current size should be far below total written bytes.
	if st.WALSize > 500*80 {
		t.Fatalf("WAL did not rotate: %d bytes (was %d)", st.WALSize, before)
	}
	// All data still readable.
	for i := 0; i < 500; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatalf("key-%04d: %v", i, err)
		}
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put: %v", err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("get: %v", err)
	}
	if err := s.Scan(nil, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	f := func(puts map[string]string, dels []string) bool {
		var b Batch
		for k, v := range puts {
			b.Put([]byte(k), []byte(v))
		}
		for _, k := range dels {
			b.Delete([]byte(k))
		}
		dec, err := decodeBatch(b.encode())
		if err != nil {
			return false
		}
		if len(dec.ops) != len(b.ops) {
			return false
		}
		// Same multiset of op keys (order of map iteration varies, but we
		// encoded from b.ops directly so order is preserved).
		for i := range b.ops {
			if b.ops[i].del != dec.ops[i].del ||
				!bytes.Equal(b.ops[i].key, dec.ops[i].key) ||
				!bytes.Equal(b.ops[i].value, dec.ops[i].value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	if _, err := decodeBatch(nil); err == nil {
		t.Fatal("nil batch accepted")
	}
	if _, err := decodeBatch([]byte{5, 0}); err == nil {
		t.Fatal("truncated batch accepted")
	}
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	enc := b.encode()
	if _, err := decodeBatch(append(enc, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = 7 // invalid op type
	if _, err := decodeBatch(bad); err == nil {
		t.Fatal("bad op type accepted")
	}
}

// TestModelCheck runs a randomized sequence of operations against the
// store and an in-memory map model, with interleaved flushes, compactions,
// and reopens; final state must match exactly.
func TestModelCheck(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableBytes: 2 << 10, MaxTables: 3}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(42))
	keyspace := 200

	for step := 0; step < 3000; step++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(keyspace))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			v := fmt.Sprintf("val-%d", step)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 6, 7: // delete
			if err := s.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 8: // flush sometimes
			if rng.Intn(4) == 0 {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		case 9: // reopen sometimes
			if rng.Intn(10) == 0 {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s, err = Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Verify every key agrees with the model.
	for i := 0; i < keyspace; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, err := s.Get([]byte(k))
		want, exists := model[k]
		if exists {
			if err != nil || string(v) != want {
				t.Fatalf("%s = %q, %v; model %q", k, v, err, want)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s should be absent, got %q %v", k, v, err)
		}
	}
	// Scan agrees with the model in order and content.
	var scanned []string
	s.Scan(nil, nil, func(k, v []byte) bool {
		scanned = append(scanned, string(k))
		if model[string(k)] != string(v) {
			t.Fatalf("scan %s = %q, model %q", k, v, model[string(k)])
		}
		return true
	})
	if len(scanned) != len(model) {
		t.Fatalf("scan found %d keys, model has %d", len(scanned), len(model))
	}
	for i := 1; i < len(scanned); i++ {
		if scanned[i-1] >= scanned[i] {
			t.Fatalf("scan out of order: %s >= %s", scanned[i-1], scanned[i])
		}
	}
	s.Close()
}

func TestLargeValues(t *testing.T) {
	s := openTest(t, Options{MemtableBytes: 1 << 20})
	big := bytes.Repeat([]byte("data"), 100_000) // 400 KB
	s.Put([]byte("big"), big)
	s.Flush()
	v, err := s.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted: len=%d err=%v", len(v), err)
	}
}

func TestGetDoesNotAliasMemtable(t *testing.T) {
	s := openTest(t, Options{})
	s.Put([]byte("k"), []byte("abc"))
	v, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _ := s.Get([]byte("k"))
	if string(v2) != "abc" {
		t.Fatal("Get returned aliased memory")
	}
}

// TestReadsOutliveTheirTable pins that Get and Scan hand out copies.
// Table reads alias a mapping that Compact and Close unmap, so a slice
// leaked from it would fault or read garbage once its table is gone.
func TestReadsOutliveTheirTable(t *testing.T) {
	s := openTest(t, Options{DisableAutoCompact: true})
	want := map[string]string{}
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key-%04d", 2*i+gen)
			v := fmt.Sprintf("value-%d-%s", gen, bytes.Repeat([]byte("x"), i%40))
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	type read struct{ k, v []byte }
	var reads []read
	for _, k := range []string{"key-0000", "key-0301", "key-0599"} {
		v, err := s.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, read{[]byte(k), v})
	}
	// 600 keys span two scan chunks.
	if err := s.Scan(nil, nil, func(k, v []byte) bool {
		reads = append(reads, read{k, v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(reads) - 3; got != len(want) {
		t.Fatalf("scanned %d keys, want %d", got, len(want))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Tables != 1 {
		t.Fatalf("%d tables after Compact, want 1", st.Tables)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if w, ok := want[string(r.k)]; !ok || string(r.v) != w {
			t.Fatalf("read %q = %q after its table went, want %q", r.k, r.v, w)
		}
	}
}
