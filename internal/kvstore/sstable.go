package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// SSTable on-disk format (all integers little-endian):
//
//	file   := entry* index bloom footer
//	entry  := keyLen uvarint | key | flag u8 | valLen uvarint | val
//	index  := count uvarint | (keyLen uvarint | key | offset uvarint)*
//	bloom  := bloomFilter.marshal()
//	footer := indexOff u64 | bloomOff u64 | count u64 |
//	          dataCRC u32 | metaCRC u32 | magic u64
//
// Entries are sorted by key and unique. flag bit 0 marks a tombstone
// (tombstones persist across flushes so newer tables shadow older ones;
// a full compaction drops them). The sparse index holds every
// indexInterval-th key, so a point lookup scans at most indexInterval
// entries after a binary search. metaCRC covers index+bloom and is always
// verified at open; dataCRC covers the entry region and is verified when
// the store is opened with VerifyChecksums.
const (
	tableMagic    uint64 = 0x3154535353415350 // "PASSSST1" little-endian
	indexInterval        = 16
	footerSize           = 8 + 8 + 8 + 4 + 4 + 8
)

var (
	// ErrBadTable reports a structurally invalid or corrupt SSTable.
	ErrBadTable = errors.New("kvstore: bad sstable")
)

type indexEntry struct {
	key    []byte
	offset int64
}

// table is an open, immutable SSTable. Its entry region is mapped
// read-only on unix (read into the heap elsewhere, see mapRegion), so
// iterators hand out sub-slices of data without a syscall or a copy.
// Those slices are valid only until close, which runs under Store.mu;
// the store copies whatever it returns before releasing the lock.
type table struct {
	path  string
	seq   int64 // generation; higher shadows lower
	index []indexEntry
	bloom *bloomFilter
	count int64
	data  []byte // entry region [0, indexOff)
	size  int64
}

// entrySource supplies ordered unique entries to writeTable.
type entrySource interface {
	// nextEntry returns the next entry or ok=false at the end.
	nextEntry() (key, value []byte, tombstone bool, ok bool)
}

// writeTable streams src into a new SSTable at path. Entries must arrive
// in strictly increasing key order. dropTombstones elides deletion markers
// (legal only when the output will shadow nothing, i.e. full compaction).
// The file is written to a temp name and renamed into place, then fsynced,
// so a crash never leaves a half-written table under the real name.
func writeTable(path string, src entrySource, bitsPerKey int, dropTombstones bool) (count int64, err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("kvstore: create %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	w := bufio.NewWriterSize(f, 1<<16)
	dataCRC := crc32.New(crcTableKV)
	out := io.MultiWriter(w, dataCRC)

	var (
		offset    int64
		index     []indexEntry
		hashes    [][2]uint64
		tmpVarint [binary.MaxVarintLen64]byte
		prevKey   []byte
		haveKey   bool
	)
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(tmpVarint[:], v)
		m, err := out.Write(tmpVarint[:n])
		offset += int64(m)
		return err
	}
	for {
		key, value, tomb, ok := src.nextEntry()
		if !ok {
			break
		}
		if haveKey && bytes.Compare(key, prevKey) <= 0 {
			return 0, fmt.Errorf("%w: keys out of order (%q after %q)", ErrBadTable, key, prevKey)
		}
		prevKey = append(prevKey[:0], key...)
		haveKey = true
		if tomb && dropTombstones {
			continue
		}
		if count%indexInterval == 0 {
			index = append(index, indexEntry{key: append([]byte(nil), key...), offset: offset})
		}
		h1, h2 := bloomHashes(key)
		hashes = append(hashes, [2]uint64{h1, h2})
		if err := writeUvarint(uint64(len(key))); err != nil {
			return 0, err
		}
		if n, err := out.Write(key); err != nil {
			return 0, err
		} else {
			offset += int64(n)
		}
		flag := byte(0)
		if tomb {
			flag = 1
		}
		if n, err := out.Write([]byte{flag}); err != nil {
			return 0, err
		} else {
			offset += int64(n)
		}
		if err := writeUvarint(uint64(len(value))); err != nil {
			return 0, err
		}
		if n, err := out.Write(value); err != nil {
			return 0, err
		} else {
			offset += int64(n)
		}
		count++
	}

	indexOff := offset
	// Meta region: index + bloom, with its own CRC.
	var meta bytes.Buffer
	mw := &meta
	writeUvarintTo := func(buf *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(tmpVarint[:], v)
		buf.Write(tmpVarint[:n])
	}
	writeUvarintTo(mw, uint64(len(index)))
	for _, ie := range index {
		writeUvarintTo(mw, uint64(len(ie.key)))
		mw.Write(ie.key)
		writeUvarintTo(mw, uint64(ie.offset))
	}
	bloomOff := indexOff + int64(meta.Len())
	bloom := newBloomFilter(len(hashes), bitsPerKey)
	for _, h := range hashes {
		for i := uint32(0); i < bloom.k; i++ {
			pos := (h[0] + uint64(i)*h[1]) % bloom.nbits
			bloom.bits[pos/8] |= 1 << (pos % 8)
		}
	}
	meta.Write(bloom.marshal())

	if _, err = w.Write(meta.Bytes()); err != nil {
		return 0, err
	}
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(count))
	binary.LittleEndian.PutUint32(footer[24:28], dataCRC.Sum32())
	binary.LittleEndian.PutUint32(footer[28:32], crc32.Checksum(meta.Bytes(), crcTableKV))
	binary.LittleEndian.PutUint64(footer[32:40], tableMagic)
	if _, err = w.Write(footer[:]); err != nil {
		return 0, err
	}
	if err = w.Flush(); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("kvstore: rename: %w", err)
	}
	return count, nil
}

var crcTableKV = crc32.MakeTable(crc32.Castagnoli)

// openTable opens and validates an SSTable and maps its entry region.
// With verifyData, the whole entry region is checksummed.
func openTable(path string, seq int64, verifyData bool) (*table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open table: %w", err)
	}
	// The mapping, not the descriptor, keeps the file readable.
	defer f.Close()
	t := &table{path: path, seq: seq}

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	t.size = st.Size()
	if t.size < footerSize {
		return nil, fmt.Errorf("%w: %s too small", ErrBadTable, path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], t.size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[32:40]) != tableMagic {
		return nil, fmt.Errorf("%w: %s bad magic", ErrBadTable, path)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	t.count = int64(binary.LittleEndian.Uint64(footer[16:24]))
	dataCRC := binary.LittleEndian.Uint32(footer[24:28])
	metaCRC := binary.LittleEndian.Uint32(footer[28:32])
	if indexOff < 0 || bloomOff < indexOff || bloomOff > t.size-footerSize {
		return nil, fmt.Errorf("%w: %s bad offsets", ErrBadTable, path)
	}

	meta := make([]byte, t.size-footerSize-indexOff)
	if _, err := f.ReadAt(meta, indexOff); err != nil {
		return nil, err
	}
	if crc32.Checksum(meta, crcTableKV) != metaCRC {
		return nil, fmt.Errorf("%w: %s meta checksum", ErrBadTable, path)
	}
	// Parse sparse index. Each entry takes at least two bytes, which
	// bounds the count before anything is reserved for it.
	p := meta[:bloomOff-indexOff]
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w)/2 {
		return nil, fmt.Errorf("%w: %s index count", ErrBadTable, path)
	}
	p = p[w:]
	t.index = make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		kl, w := binary.Uvarint(p)
		if w <= 0 || uint64(len(p)-w) < kl {
			return nil, fmt.Errorf("%w: %s index key", ErrBadTable, path)
		}
		key := append([]byte(nil), p[w:w+int(kl)]...)
		p = p[w+int(kl):]
		off, w := binary.Uvarint(p)
		// Offsets index into the mapped entry region: they must stay
		// inside it and never step back.
		if w <= 0 || off > uint64(indexOff) || (i > 0 && int64(off) < t.index[i-1].offset) {
			return nil, fmt.Errorf("%w: %s index offset", ErrBadTable, path)
		}
		p = p[w:]
		t.index = append(t.index, indexEntry{key: key, offset: int64(off)})
	}
	bloom, okB := unmarshalBloom(meta[bloomOff-indexOff:])
	if !okB {
		return nil, fmt.Errorf("%w: %s bloom", ErrBadTable, path)
	}
	t.bloom = bloom

	if t.data, err = mapRegion(f, indexOff); err != nil {
		return nil, fmt.Errorf("kvstore: map %s: %w", path, err)
	}
	if verifyData && crc32.Checksum(t.data, crcTableKV) != dataCRC {
		t.close()
		return nil, fmt.Errorf("%w: %s data checksum", ErrBadTable, path)
	}
	return t, nil
}

func (t *table) close() error {
	err := unmapRegion(t.data)
	t.data = nil
	return err
}

// get performs a point lookup. The value is copied out of the mapping.
func (t *table) get(key []byte) (value []byte, tombstone, found bool, err error) {
	if !t.bloom.mayContain(key) {
		return nil, false, false, nil
	}
	it := t.iter(key)
	k, v, tomb, ok, err := it.next()
	if err != nil || !ok {
		return nil, false, false, err
	}
	if !bytes.Equal(k, key) {
		return nil, false, false, nil
	}
	return append([]byte(nil), v...), tomb, true, nil
}

// iter returns an iterator positioned at the first entry with key >= start
// (nil start = first entry).
func (t *table) iter(start []byte) tableIter {
	offset := int64(0)
	if len(start) > 0 && len(t.index) > 0 {
		// Binary search: last index entry with key <= start.
		i := sort.Search(len(t.index), func(i int) bool {
			return bytes.Compare(t.index[i].key, start) > 0
		})
		if i > 0 {
			offset = t.index[i-1].offset
		}
	}
	return tableIter{data: t.data[offset:], start: start}
}

// tableIter decodes entries in place, skipping until start. The key and
// value it returns alias the table's mapping.
type tableIter struct {
	data    []byte // entries not yet decoded
	start   []byte
	started bool
}

// next returns the next entry. ok=false at the end.
func (it *tableIter) next() (key, value []byte, tombstone, ok bool, err error) {
	for len(it.data) > 0 {
		p := it.data
		kl, w := binary.Uvarint(p)
		if w <= 0 || kl >= uint64(len(p)-w) { // the flag byte follows the key
			return nil, nil, false, false, fmt.Errorf("%w: truncated entry key", ErrBadTable)
		}
		p = p[w:]
		key = p[:kl:kl]
		flag := p[kl]
		p = p[kl+1:]
		vl, w := binary.Uvarint(p)
		if w <= 0 || vl > uint64(len(p)-w) {
			return nil, nil, false, false, fmt.Errorf("%w: truncated entry value", ErrBadTable)
		}
		p = p[w:]
		value, it.data = p[:vl:vl], p[vl:]
		if !it.started && len(it.start) > 0 && bytes.Compare(key, it.start) < 0 {
			continue // still before start
		}
		it.started = true
		return key, value, flag&1 != 0, true, nil
	}
	return nil, nil, false, false, nil
}
