// Package kvstore is an embedded, crash-consistent key-value store in the
// log-structured-merge (LSM) style: writes land in a write-ahead log and a
// skiplist memtable, flush into immutable sorted tables (SSTables) with
// sparse indexes and Bloom filters, and compact in the background into
// larger tables. It is the storage substrate for the local PASS — tuple-set
// data, provenance records, and every secondary index live in one keyspace,
// and a WriteBatch gives the atomic multi-key commit that keeps provenance
// consistent with data across crashes (the paper's Reliability criterion,
// Section IV).
//
// Ordering: keys are arbitrary byte strings compared lexicographically;
// the index layer uses keyenc to map typed, composite logical keys onto
// this order.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pass/internal/wal"
)

// Errors.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrClosed   = errors.New("kvstore: store is closed")
	ErrBadBatch = errors.New("kvstore: corrupt batch encoding")
)

// Options tunes the store. The zero value selects sensible defaults.
type Options struct {
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int64
	// MaxTables triggers a full compaction when exceeded (default 8).
	MaxTables int
	// BloomBitsPerKey sizes table Bloom filters (default 10).
	BloomBitsPerKey int
	// SyncWrites fsyncs the WAL on every batch; durable but slow.
	SyncWrites bool
	// VerifyChecksums makes Open checksum every table's data region.
	VerifyChecksums bool
	// DisableAutoCompact turns off size-triggered compaction (benchmarks
	// use this to isolate costs).
	DisableAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 8
	}
	if o.BloomBitsPerKey <= 0 {
		o.BloomBitsPerKey = 10
	}
	return o
}

// Stats reports store state and activity counters.
type Stats struct {
	Tables        int
	TableEntries  int64
	MemtableKeys  int
	MemtableBytes int64
	Flushes       int64
	Compactions   int64
	WALSize       int64
}

// Store is the embedded LSM store. All methods are safe for concurrent use.
type Store struct {
	mu                   sync.Mutex
	dir                  string
	opts                 Options
	mem                  *skiplist
	wal                  *wal.Log
	walGen               int64
	tables               []*table // ascending seq: tables[len-1] is newest
	nextSeq              int64
	flushes, compactions int64
	closed               bool
}

// Open opens (creating if needed) a store rooted at dir, replaying the WAL
// so that the returned store reflects every acknowledged write.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts, mem: newSkiplist(), nextSeq: 1}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: readdir: %w", err)
	}
	var walGens []int64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".sst"):
			seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "sst-"), ".sst"), 10, 64)
			if err != nil {
				continue // foreign file
			}
			t, err := openTable(filepath.Join(dir, name), seq, opts.VerifyChecksums)
			if err != nil {
				s.closeAll()
				return nil, fmt.Errorf("kvstore: table %s: %w", name, err)
			}
			s.tables = append(s.tables, t)
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			gen, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
			if err != nil {
				continue
			}
			walGens = append(walGens, gen)
		case strings.HasSuffix(name, ".tmp"):
			// Half-written flush/compaction output: discard.
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(s.tables, func(i, j int) bool { return s.tables[i].seq < s.tables[j].seq })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// Only the newest WAL holds unflushed data: a new WAL generation is
	// created strictly after the previous memtable reaches a durable
	// table, so older generations are redundant and are removed.
	if len(walGens) > 0 {
		s.walGen = walGens[len(walGens)-1]
		for _, g := range walGens[:len(walGens)-1] {
			os.Remove(filepath.Join(dir, walName(g)))
		}
	} else {
		s.walGen = 1
	}
	w, err := wal.Open(filepath.Join(dir, walName(s.walGen)), wal.Options{SyncOnAppend: opts.SyncWrites}, func(payload []byte) error {
		b, err := decodeBatch(payload)
		if err != nil {
			// A decodable-but-invalid record means real corruption (the
			// WAL CRC passed); fail loudly rather than lose writes.
			return err
		}
		s.applyToMem(b)
		return nil
	})
	if err != nil {
		s.closeAll()
		return nil, err
	}
	s.wal = w
	return s, nil
}

func walName(gen int64) string { return fmt.Sprintf("wal-%012d.log", gen) }
func sstName(seq int64) string { return fmt.Sprintf("sst-%012d.sst", seq) }

func (s *Store) closeAll() {
	for _, t := range s.tables {
		t.close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
}

// Close flushes the WAL to disk and closes all files. The memtable is not
// flushed to a table — the WAL preserves it for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if err := s.wal.Close(); err != nil {
		firstErr = err
	}
	for _, t := range s.tables {
		if err := t.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Batch is an ordered set of writes applied atomically: either every
// operation survives a crash or none does.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	del   bool
	key   []byte
	value []byte
}

// Put queues a write.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), value: append([]byte(nil), value...)})
}

// Delete queues a deletion.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{del: true, key: append([]byte(nil), key...)})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

func (b *Batch) encode() []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(b.ops)))
	buf = append(buf, tmp[:n]...)
	for _, op := range b.ops {
		if op.del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		n = binary.PutUvarint(tmp[:], uint64(len(op.key)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, op.key...)
		if !op.del {
			n = binary.PutUvarint(tmp[:], uint64(len(op.value)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, op.value...)
		}
	}
	return buf
}

func decodeBatch(data []byte) (*Batch, error) {
	b := &Batch{}
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: count", ErrBadBatch)
	}
	p := data[n:]
	readBytes := func() ([]byte, error) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return nil, fmt.Errorf("%w: field", ErrBadBatch)
		}
		v := p[n : n+int(l)]
		p = p[n+int(l):]
		return v, nil
	}
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("%w: op type", ErrBadBatch)
		}
		del := p[0] == 1
		if p[0] > 1 {
			return nil, fmt.Errorf("%w: op type %d", ErrBadBatch, p[0])
		}
		p = p[1:]
		key, err := readBytes()
		if err != nil {
			return nil, err
		}
		op := batchOp{del: del, key: append([]byte(nil), key...)}
		if !del {
			val, err := readBytes()
			if err != nil {
				return nil, err
			}
			op.value = append([]byte(nil), val...)
		}
		b.ops = append(b.ops, op)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadBatch)
	}
	return b, nil
}

func (s *Store) applyToMem(b *Batch) {
	for _, op := range b.ops {
		s.mem.set(op.key, op.value, op.del)
	}
}

// Apply commits the batch atomically: one WAL record, then the memtable.
func (s *Store) Apply(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.Append(b.encode()); err != nil {
		return err
	}
	s.applyToMem(b)
	if s.mem.bytes >= s.opts.MemtableBytes {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Put writes a single key.
func (s *Store) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return s.Apply(&b)
}

// Delete removes a single key (idempotent).
func (s *Store) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return s.Apply(&b)
}

// Get returns the value for key, or ErrNotFound.
func (s *Store) Get(key []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if v, tomb, found := s.mem.get(key); found {
		if tomb {
			return nil, ErrNotFound
		}
		return append([]byte(nil), v...), nil
	}
	for i := len(s.tables) - 1; i >= 0; i-- {
		v, tomb, found, err := s.tables[i].get(key)
		if err != nil {
			return nil, err
		}
		if found {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// Has reports whether key exists.
func (s *Store) Has(key []byte) (bool, error) {
	_, err := s.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// scanChunk is the number of entries gathered under the lock per round;
// the lock is released before the callback runs, so callbacks may freely
// call back into the store (Get, Scan, even Put — writes that land after
// the cursor are observed, before it are not).
const scanChunk = 512

// Scan visits live keys in [start, end) in ascending order, calling fn for
// each; fn returning false stops the scan. A nil end scans to the end of
// the keyspace. The key and value slices are owned by the callback.
//
// Consistency: each chunk of scanChunk entries is read atomically;
// between chunks, concurrent writes may become visible. For the
// append-only provenance workload this is indistinguishable from a
// snapshot scan.
func (s *Store) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	type kvPair struct{ k, v []byte }
	cursor := append([]byte(nil), start...)
	for {
		var buf []kvPair
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		m, err := s.mergedSourceLocked(cursor)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		done := false
		for len(buf) < scanChunk {
			k, v, tomb, ok, err := m.next()
			if err != nil {
				s.mu.Unlock()
				return err
			}
			if !ok {
				done = true
				break
			}
			if end != nil && bytes.Compare(k, end) >= 0 {
				done = true
				break
			}
			if tomb {
				continue
			}
			buf = append(buf, kvPair{k: append([]byte(nil), k...), v: append([]byte(nil), v...)})
		}
		s.mu.Unlock()

		for _, p := range buf {
			if !fn(p.k, p.v) {
				return nil
			}
		}
		if done {
			return nil
		}
		if len(buf) == 0 {
			return nil
		}
		// Resume strictly after the last delivered key.
		last := buf[len(buf)-1].k
		cursor = append(append(cursor[:0], last...), 0)
	}
}

// ScanPrefix visits live keys with the given prefix.
func (s *Store) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	end := prefixEnd(prefix)
	return s.Scan(prefix, end, fn)
}

func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// Flush forces the memtable into a table (no-op when empty).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.mem.length == 0 {
		return nil
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	seq := s.nextSeq
	path := filepath.Join(s.dir, sstName(seq))
	if _, err := writeTable(path, &memSource{node: s.mem.first()}, s.opts.BloomBitsPerKey, false); err != nil {
		return err
	}
	t, err := openTable(path, seq, false)
	if err != nil {
		return err
	}
	s.nextSeq++
	s.tables = append(s.tables, t)
	s.flushes++

	// Rotate the WAL: the old generation's contents are durable in the
	// table, so it can go. Create-new strictly after table durability.
	oldWAL := s.wal
	s.walGen++
	nw, err := wal.Open(filepath.Join(s.dir, walName(s.walGen)), wal.Options{SyncOnAppend: s.opts.SyncWrites}, nil)
	if err != nil {
		return err
	}
	s.wal = nw
	oldWAL.Close()
	oldWAL.Remove()
	s.mem = newSkiplist()

	if !s.opts.DisableAutoCompact && len(s.tables) > s.opts.MaxTables {
		return s.compactLocked()
	}
	return nil
}

// Compact merges every table into one, dropping tombstones.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.tables) <= 1 {
		return nil
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	srcs := make([]entryStream, len(s.tables))
	for i, t := range s.tables {
		// Higher seq = higher priority; memtable absent (it was flushed or
		// is newer than the merge output and shadows it naturally).
		srcs[i] = &tableStream{it: t.iter(nil), prio: int(t.seq)}
	}
	merged, err := newMergeStream(srcs)
	if err != nil {
		return err
	}
	seq := s.nextSeq
	path := filepath.Join(s.dir, sstName(seq))
	if _, err := writeTable(path, merged, s.opts.BloomBitsPerKey, true); err != nil {
		return err
	}
	// nextEntry ends the output early on a read error: keep the inputs.
	if merged.err != nil {
		os.Remove(path)
		return merged.err
	}
	t, err := openTable(path, seq, false)
	if err != nil {
		return err
	}
	s.nextSeq++
	old := s.tables
	s.tables = []*table{t}
	s.compactions++
	for _, ot := range old {
		ot.close()
		os.Remove(ot.path)
	}
	return nil
}

// Stats returns a snapshot of store state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Tables:        len(s.tables),
		MemtableKeys:  s.mem.length,
		MemtableBytes: s.mem.bytes,
		Flushes:       s.flushes,
		Compactions:   s.compactions,
	}
	if s.wal != nil {
		st.WALSize = s.wal.Size()
	}
	for _, t := range s.tables {
		st.TableEntries += t.count
	}
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// --- merge machinery ---

// entryStream is a positioned stream of ordered entries with a priority
// (higher priority wins on duplicate keys).
type entryStream interface {
	peek() (key []byte, ok bool, err error)
	take() (key, value []byte, tombstone bool, err error)
	priority() int
}

type tableStream struct {
	it   tableIter
	prio int
	k, v []byte
	tomb bool
	ok   bool
	err  error
	init bool
}

func (ts *tableStream) advance() {
	ts.k, ts.v, ts.tomb, ts.ok, ts.err = ts.it.next()
	ts.init = true
}

func (ts *tableStream) peek() ([]byte, bool, error) {
	if !ts.init {
		ts.advance()
	}
	if ts.err != nil || !ts.ok {
		return nil, false, ts.err
	}
	return ts.k, true, nil
}

func (ts *tableStream) take() ([]byte, []byte, bool, error) {
	if !ts.init {
		ts.advance()
	}
	k, v, tomb, err := ts.k, ts.v, ts.tomb, ts.err
	if err == nil && ts.ok {
		ts.advance()
	}
	return k, v, tomb, err
}

func (ts *tableStream) priority() int { return ts.prio }

type memStream struct {
	node *skipNode
}

func (ms *memStream) peek() ([]byte, bool, error) {
	if ms.node == nil {
		return nil, false, nil
	}
	return ms.node.key, true, nil
}

func (ms *memStream) take() ([]byte, []byte, bool, error) {
	n := ms.node
	ms.node = n.next[0]
	return n.key, n.value, n.tombstone, nil
}

func (ms *memStream) priority() int { return 1 << 30 } // memtable always newest

// mergeStream merges entryStreams into one ordered, deduplicated stream.
// It satisfies entrySource for writeTable and backs Scan.
type mergeStream struct {
	srcs []entryStream
	err  error
}

func newMergeStream(srcs []entryStream) (*mergeStream, error) {
	return &mergeStream{srcs: srcs}, nil
}

// next returns the next unique entry, resolving duplicates by priority.
func (m *mergeStream) next() (key, value []byte, tombstone, ok bool, err error) {
	if m.err != nil {
		return nil, nil, false, false, m.err
	}
	// Find the smallest key among stream heads.
	var minKey []byte
	found := false
	for _, s := range m.srcs {
		k, ok, err := s.peek()
		if err != nil {
			m.err = err
			return nil, nil, false, false, err
		}
		if !ok {
			continue
		}
		if !found || bytes.Compare(k, minKey) < 0 {
			minKey = k
			found = true
		}
	}
	if !found {
		return nil, nil, false, false, nil
	}
	// Take from every stream whose head equals minKey; keep the highest
	// priority version.
	bestPrio := -1
	for _, s := range m.srcs {
		k, ok, _ := s.peek()
		if !ok || !bytes.Equal(k, minKey) {
			continue
		}
		tk, tv, ttomb, terr := s.take()
		if terr != nil {
			m.err = terr
			return nil, nil, false, false, terr
		}
		if s.priority() > bestPrio {
			bestPrio = s.priority()
			key, value, tombstone = tk, tv, ttomb
		}
	}
	return key, value, tombstone, true, nil
}

// nextEntry adapts mergeStream to entrySource (compaction output).
func (m *mergeStream) nextEntry() ([]byte, []byte, bool, bool) {
	k, v, tomb, ok, err := m.next()
	if err != nil || !ok {
		return nil, nil, false, false
	}
	return k, v, tomb, true
}

// memSource adapts a skiplist to entrySource (flush path).
type memSource struct {
	node *skipNode
}

func (ms *memSource) nextEntry() ([]byte, []byte, bool, bool) {
	if ms.node == nil {
		return nil, nil, false, false
	}
	n := ms.node
	ms.node = n.next[0]
	return n.key, n.value, n.tombstone, true
}

// mergedSourceLocked builds the read view for Scan: memtable + all tables.
func (s *Store) mergedSourceLocked(start []byte) (*mergeStream, error) {
	srcs := make([]entryStream, 0, len(s.tables)+1)
	for _, t := range s.tables {
		srcs = append(srcs, &tableStream{it: t.iter(start), prio: int(t.seq)})
	}
	srcs = append(srcs, &memStream{node: s.mem.seek(start)})
	return newMergeStream(srcs)
}
