package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// sliceSource feeds writeTable from a sorted slice.
type sliceSource struct {
	entries []sliceEntry
	pos     int
}

type sliceEntry struct {
	k, v []byte
	tomb bool
}

func (s *sliceSource) nextEntry() ([]byte, []byte, bool, bool) {
	if s.pos >= len(s.entries) {
		return nil, nil, false, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e.k, e.v, e.tomb, true
}

func buildTestTable(t *testing.T, n int, dropTombstones bool) (*table, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	src := &sliceSource{}
	for i := 0; i < n; i++ {
		src.entries = append(src.entries, sliceEntry{
			k:    []byte(fmt.Sprintf("key-%05d", i)),
			v:    []byte(fmt.Sprintf("value-%d", i)),
			tomb: i%7 == 3,
		})
	}
	if _, err := writeTable(path, src, 10, dropTombstones); err != nil {
		t.Fatal(err)
	}
	tb, err := openTable(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.close() })
	return tb, path
}

func TestTableGetHitsAndMisses(t *testing.T) {
	tb, _ := buildTestTable(t, 500, false)
	v, tomb, found, err := tb.get([]byte("key-00042"))
	if err != nil || !found || tomb || string(v) != "value-42" {
		t.Fatalf("get = %q %v %v %v", v, tomb, found, err)
	}
	// Tombstoned key (i%7==3 -> 10).
	_, tomb, found, err = tb.get([]byte("key-00010"))
	if err != nil || !found || !tomb {
		t.Fatalf("tombstone get = %v %v %v", tomb, found, err)
	}
	// Missing keys: before, between, after.
	for _, k := range []string{"a", "key-00042x", "zzz"} {
		if _, _, found, _ := tb.get([]byte(k)); found {
			t.Fatalf("found nonexistent key %q", k)
		}
	}
}

func TestTableIteratorFullScan(t *testing.T) {
	tb, _ := buildTestTable(t, 100, false)
	it := tb.iter(nil)
	var prev []byte
	count := 0
	for {
		k, _, _, ok, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("iterator out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
	}
	if count != 100 {
		t.Fatalf("scanned %d entries, want 100", count)
	}
}

func TestTableIteratorSeek(t *testing.T) {
	tb, _ := buildTestTable(t, 200, false)
	it := tb.iter([]byte("key-00150"))
	k, _, _, ok, err := it.next()
	if err != nil || !ok || string(k) != "key-00150" {
		t.Fatalf("seek landed on %q (%v, %v)", k, ok, err)
	}
	// Seek between keys lands on the next one.
	it = tb.iter([]byte("key-00150a"))
	k, _, _, ok, _ = it.next()
	if !ok || string(k) != "key-00151" {
		t.Fatalf("between-keys seek landed on %q", k)
	}
	// Seek past the end yields nothing.
	it = tb.iter([]byte("zzz"))
	if _, _, _, ok, _ := it.next(); ok {
		t.Fatal("seek past end returned an entry")
	}
}

func TestWriteTableDropTombstones(t *testing.T) {
	tb, _ := buildTestTable(t, 70, true)
	// All i%7==3 entries dropped: 10 of 70.
	if tb.count != 60 {
		t.Fatalf("count = %d, want 60", tb.count)
	}
	if _, _, found, _ := tb.get([]byte("key-00003")); found {
		t.Fatal("dropped tombstone still present")
	}
}

func TestWriteTableRejectsUnsortedInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sst")
	src := &sliceSource{entries: []sliceEntry{
		{k: []byte("b"), v: []byte("1")},
		{k: []byte("a"), v: []byte("2")},
	}}
	if _, err := writeTable(path, src, 10, false); err == nil {
		t.Fatal("unsorted input accepted")
	}
	// Duplicate keys also rejected.
	src = &sliceSource{entries: []sliceEntry{
		{k: []byte("a"), v: []byte("1")},
		{k: []byte("a"), v: []byte("2")},
	}}
	if _, err := writeTable(path, src, 10, false); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	// Failed build leaves no file behind.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed writeTable left a file")
	}
}

func TestOpenTableRejectsCorruptMeta(t *testing.T) {
	_, path := buildTestTable(t, 50, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte in the meta region (just before the footer).
	bad := append([]byte(nil), data...)
	bad[len(bad)-footerSize-3] ^= 0xFF
	badPath := path + ".corrupt"
	os.WriteFile(badPath, bad, 0o644)
	if _, err := openTable(badPath, 1, false); err == nil {
		t.Fatal("corrupt meta accepted")
	}
	// Truncated footer.
	os.WriteFile(badPath, data[:10], 0o644)
	if _, err := openTable(badPath, 1, false); err == nil {
		t.Fatal("truncated table accepted")
	}
	// Bad magic.
	bad2 := append([]byte(nil), data...)
	bad2[len(bad2)-1] ^= 0xFF
	os.WriteFile(badPath, bad2, 0o644)
	if _, err := openTable(badPath, 1, false); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTableEmptySource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.sst")
	n, err := writeTable(path, &sliceSource{}, 10, false)
	if err != nil || n != 0 {
		t.Fatalf("empty table: n=%d err=%v", n, err)
	}
	tb, err := openTable(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	if _, _, found, _ := tb.get([]byte("any")); found {
		t.Fatal("empty table found a key")
	}
	it := tb.iter(nil)
	if _, _, _, ok, _ := it.next(); ok {
		t.Fatal("empty table iterated an entry")
	}
}

// sealTable rewrites the footer's checksums over the regions its offsets
// name, so a corrupted structure gets past the CRCs to the parser.
func sealTable(b []byte) []byte {
	if len(b) < footerSize {
		return b
	}
	footer := b[len(b)-footerSize:]
	metaEnd := uint64(len(b) - footerSize)
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	if indexOff > metaEnd {
		return b
	}
	binary.LittleEndian.PutUint32(footer[24:28], crc32.Checksum(b[:indexOff], crcTableKV))
	binary.LittleEndian.PutUint32(footer[28:32], crc32.Checksum(b[indexOff:metaEnd], crcTableKV))
	return b
}

// rawTable assembles a sealed table file around a hand-made entry region
// and sparse index.
func rawTable(entries []byte, index ...indexEntry) []byte {
	b := append([]byte(nil), entries...)
	indexOff := len(b)
	b = binary.AppendUvarint(b, uint64(len(index)))
	for _, ie := range index {
		b = binary.AppendUvarint(b, uint64(len(ie.key)))
		b = append(b, ie.key...)
		b = binary.AppendUvarint(b, uint64(ie.offset))
	}
	bloomOff := len(b)
	b = append(b, newBloomFilter(len(index), 10).marshal()...)
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[32:40], tableMagic)
	return sealTable(append(b, footer[:]...))
}

func openRawTable(t *testing.T, b []byte) (*table, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.sst")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	tb, err := openTable(path, 1, true)
	if err == nil {
		t.Cleanup(func() { tb.close() })
	}
	return tb, err
}

// Index offsets slice the mapped entry region, so openTable must refuse
// any that leave it or step back.
func TestOpenTableRejectsBadIndexOffsets(t *testing.T) {
	entry := []byte{1, 'a', 0, 1, 'v'}
	two := append(append([]byte(nil), entry...), 1, 'b', 0, 1, 'w')
	if _, err := openRawTable(t, rawTable(entry, indexEntry{key: []byte("a")})); err != nil {
		t.Fatalf("well-formed raw table rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"past the entry region": rawTable(entry, indexEntry{key: []byte("a"), offset: 6}),
		"past 2^63":             rawTable(entry, indexEntry{key: []byte("a"), offset: -1}),
		"decreasing":            rawTable(two, indexEntry{key: []byte("a"), offset: 5}, indexEntry{key: []byte("b")}),
	} {
		if _, err := openRawTable(t, b); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: openTable = %v, want ErrBadTable", name, err)
		}
	}
}

// A truncated entry is an error, never an out-of-range slice, including
// lengths whose sum with the bytes around them wraps.
func TestTableIterRejectsTruncatedEntry(t *testing.T) {
	for name, entries := range map[string][]byte{
		"key length 2^64-1":   binary.AppendUvarint(nil, math.MaxUint64),
		"no flag byte":        {1, 'a'},
		"no value length":     {1, 'a', 0},
		"value length 2^64-1": binary.AppendUvarint([]byte{1, 'a', 0}, math.MaxUint64),
		"short value":         {1, 'a', 0, 2, 'v'},
	} {
		tb, err := openRawTable(t, rawTable(entries))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		it := tb.iter(nil)
		if _, _, _, _, err := it.next(); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: next = %v, want ErrBadTable", name, err)
		}
	}
}

// FuzzOpenTable covers the table reader every Open runs over the files
// on disk. No input may panic, nothing is reserved by a length beyond
// what the file holds, and an accepted table iterates and answers point
// lookups without faulting. With seal set, the footer checksums are
// recomputed first so mutations reach the index, bloom and entry
// parsers instead of stopping at the CRC.
func FuzzOpenTable(f *testing.F) {
	src := &sliceSource{}
	for i := 0; i < 40; i++ {
		src.entries = append(src.entries, sliceEntry{k: []byte(fmt.Sprintf("k%03d", i)), v: []byte("v"), tomb: i%5 == 0})
	}
	path := filepath.Join(f.TempDir(), "fuzz.sst")
	if _, err := writeTable(path, src, 10, false); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{0, footerSize, len(valid) / 2, len(valid) - 1, len(valid)} {
		f.Add(valid[:cut], false)
		f.Add(valid[len(valid)-cut:], true)
	}
	f.Add(rawTable(nil), false)
	f.Add(rawTable([]byte{1, 'a', 0, 1, 'v'}, indexEntry{key: []byte("a"), offset: 6}), true)
	f.Add(rawTable(binary.AppendUvarint(nil, math.MaxUint64)), true)
	f.Fuzz(func(t *testing.T, b []byte, seal bool) {
		if seal {
			b = sealTable(append([]byte(nil), b...))
		}
		// Executions within a worker run one at a time, and each unmaps
		// its table before returning, so they can share one file.
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		tb, err := openTable(path, 1, true)
		if err != nil {
			return
		}
		defer tb.close()
		if cap(tb.index) > len(b) || len(tb.data) > len(b) {
			t.Fatalf("reserved %d index entries and %d entry bytes for a %d-byte file", cap(tb.index), len(tb.data), len(b))
		}
		it := tb.iter(nil)
		var first []byte
		for {
			k, _, _, ok, err := it.next()
			if err != nil || !ok {
				break
			}
			if first == nil {
				first = append([]byte{}, k...)
			}
		}
		tb.get(first)
		for _, ie := range tb.index {
			tb.get(ie.key)
		}
	})
}

func TestSkiplistBasics(t *testing.T) {
	sl := newSkiplist()
	sl.set([]byte("b"), []byte("2"), false)
	sl.set([]byte("a"), []byte("1"), false)
	sl.set([]byte("c"), []byte("3"), false)
	if sl.length != 3 {
		t.Fatalf("length = %d", sl.length)
	}
	v, tomb, found := sl.get([]byte("b"))
	if !found || tomb || string(v) != "2" {
		t.Fatalf("get b = %q %v %v", v, tomb, found)
	}
	// Replace keeps length.
	sl.set([]byte("b"), []byte("2b"), false)
	if sl.length != 3 {
		t.Fatalf("replace changed length to %d", sl.length)
	}
	v, _, _ = sl.get([]byte("b"))
	if string(v) != "2b" {
		t.Fatalf("replace lost: %q", v)
	}
	// Tombstone replace.
	sl.set([]byte("a"), nil, true)
	_, tomb, found = sl.get([]byte("a"))
	if !found || !tomb {
		t.Fatal("tombstone not recorded")
	}
	if _, _, found := sl.get([]byte("zz")); found {
		t.Fatal("found missing key")
	}
}

func TestSkiplistOrderedIteration(t *testing.T) {
	sl := newSkiplist()
	for i := 99; i >= 0; i-- {
		sl.set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), false)
	}
	n := 0
	var prev []byte
	for node := sl.first(); node != nil; node = node.next[0] {
		if prev != nil && bytes.Compare(prev, node.key) >= 0 {
			t.Fatal("skiplist out of order")
		}
		prev = node.key
		n++
	}
	if n != 100 {
		t.Fatalf("iterated %d nodes", n)
	}
	// Seek.
	node := sl.seek([]byte("k50"))
	if node == nil || string(node.key) != "k50" {
		t.Fatalf("seek = %v", node)
	}
	node = sl.seek([]byte("k50x"))
	if node == nil || string(node.key) != "k51" {
		t.Fatalf("between seek = %v", node)
	}
	if sl.seek([]byte("zzz")) != nil {
		t.Fatal("seek past end returned node")
	}
}

func TestSkiplistModelProperty(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val byte
		Del bool
	}) bool {
		sl := newSkiplist()
		model := map[byte]struct {
			val  byte
			tomb bool
		}{}
		for _, op := range ops {
			k := []byte{op.Key}
			sl.set(k, []byte{op.Val}, op.Del)
			model[op.Key] = struct {
				val  byte
				tomb bool
			}{op.Val, op.Del}
		}
		if sl.length != len(model) {
			return false
		}
		for k, want := range model {
			v, tomb, found := sl.get([]byte{k})
			if !found || tomb != want.tomb {
				return false
			}
			if len(v) != 1 || v[0] != want.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilterBasics(t *testing.T) {
	bf := newBloomFilter(1000, 10)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bloom-key-%d", i))
		bf.add(keys[i])
	}
	// No false negatives, ever.
	for _, k := range keys {
		if !bf.mayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
	// False positive rate at 10 bits/key should be ~1%; allow 5%.
	fp := 0
	probes := 10000
	for i := 0; i < probes; i++ {
		if bf.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / float64(probes); rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	bf := newBloomFilter(100, 10)
	bf.add([]byte("x"))
	bf.add([]byte("y"))
	got, ok := unmarshalBloom(bf.marshal())
	if !ok {
		t.Fatal("unmarshal failed")
	}
	if !got.mayContain([]byte("x")) || !got.mayContain([]byte("y")) {
		t.Fatal("round trip lost keys")
	}
	if got.k != bf.k || got.nbits != bf.nbits {
		t.Fatal("params changed")
	}
	// Garbage inputs.
	if _, ok := unmarshalBloom(nil); ok {
		t.Fatal("nil accepted")
	}
	if _, ok := unmarshalBloom([]byte{1, 2, 3}); ok {
		t.Fatal("short input accepted")
	}
	bad := bf.marshal()
	bad = bad[:len(bad)-1] // wrong bit length
	if _, ok := unmarshalBloom(bad); ok {
		t.Fatal("length mismatch accepted")
	}
	// An nbits whose byte count wraps to zero in 64 bits.
	wrap := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 1), math.MaxUint64)
	if _, ok := unmarshalBloom(wrap); ok {
		t.Fatal("nbits 2^64-1 with no bit bytes accepted")
	}
}

func TestBloomDegenerateSizes(t *testing.T) {
	bf := newBloomFilter(0, 0) // clamped internals
	bf.add([]byte("a"))
	if !bf.mayContain([]byte("a")) {
		t.Fatal("tiny filter false negative")
	}
}
