// Package wal implements a single-file write-ahead log with CRC-protected
// records and torn-tail recovery.
//
// The paper's "Reliability" criterion (Section IV) demands that "the
// system must recover provenance metadata to a state consistent with its
// data after a system failure". The WAL is the mechanism: every mutation
// (tuple-set data plus its provenance record, as one atomic entry) is
// appended and optionally fsynced here before it is applied to the
// in-memory state, so a crash at any instant loses at most the suffix of
// un-synced appends — never produces a state where data exists without its
// provenance or vice versa.
//
// On-disk format:
//
//	file   := header record*
//	header := magic[8]
//	record := length u32 | crc32c(payload) u32 | payload
//
// Recovery scans records until the first one that is truncated or fails
// its checksum; everything from that point on is discarded (truncated
// away), which is the standard torn-write rule: an invalid record means
// the crash happened while writing it, and nothing after it can have been
// acknowledged.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

var magic = [8]byte{'P', 'A', 'S', 'S', 'W', 'A', 'L', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	ErrClosed   = errors.New("wal: log is closed")
	ErrNotWAL   = errors.New("wal: file is not a WAL (bad magic)")
	ErrTooLarge = errors.New("wal: record exceeds size limit")
	ErrCorrupt  = errors.New("wal: corrupt record")
)

// MaxRecordSize bounds a single record (64 MiB); larger appends are
// rejected rather than silently accepted and later mistaken for corruption.
const MaxRecordSize = 64 << 20

const headerSize = 8
const recordHeaderSize = 8 // length + crc

// Log is an append-only write-ahead log backed by one file. Not safe for
// concurrent use; callers serialize (the kvstore holds its own lock).
type Log struct {
	f      *os.File
	path   string
	size   int64 // current valid size (append offset)
	count  int64 // records in the log
	closed bool
	sync   bool
	broken error // set when a torn append could not be rolled back
}

// Options configures Open.
type Options struct {
	// SyncOnAppend fsyncs after every append. Slower, but a successful
	// Append then guarantees durability. When false, callers use Sync()
	// at commit boundaries.
	SyncOnAppend bool
}

// Open opens (creating if necessary) the log at path, replays every valid
// record through fn, truncates any torn tail, and positions the log for
// appending. fn may be nil when the caller only wants the log opened.
// If fn returns an error, Open stops and returns it.
func Open(path string, opts Options, fn func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, sync: opts.SyncOnAppend}

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(magic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write header: %w", err)
		}
		l.size = headerSize
		return l, nil
	}
	if st.Size() < headerSize {
		f.Close()
		return nil, fmt.Errorf("%w: %s (only %d bytes)", ErrNotWAL, path, st.Size())
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	if hdr != magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotWAL, path)
	}

	// Replay.
	offset := int64(headerSize)
	var lenBuf [recordHeaderSize]byte
	for {
		_, err := f.ReadAt(lenBuf[:], offset)
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			break // clean end or torn header
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: read record header: %w", err)
		}
		length := binary.LittleEndian.Uint32(lenBuf[0:4])
		wantCRC := binary.LittleEndian.Uint32(lenBuf[4:8])
		if length > MaxRecordSize {
			break // garbage length: treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, offset+recordHeaderSize); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			break // corrupt (partially written) record
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				f.Close()
				return nil, err
			}
		}
		offset += recordHeaderSize + int64(length)
		l.count++
	}
	if offset < st.Size() {
		if err := f.Truncate(offset); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.size = offset
	return l, nil
}

// Append writes one record. With SyncOnAppend the record is durable when
// Append returns; otherwise call Sync at the commit boundary.
func (l *Log) Append(payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	// Single writev-style call keeps header+payload adjacent; a crash can
	// still tear the pair, which recovery handles.
	buf := make([]byte, 0, len(hdr)+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	n, err := l.f.Write(buf)
	if err != nil {
		// A partial write leaves a torn record, and recovery stops at the
		// first torn record: anything appended after it would be lost.
		// Cut the torn bytes off; if that fails too, refuse appends until
		// Reset rewrites the log.
		if n > 0 {
			if terr := l.rollback(); terr != nil {
				l.broken = fmt.Errorf("wal: torn record not rolled back: %w", terr)
			}
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(n)
	l.count++
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// rollback truncates the file back to the end of the last whole record.
func (l *Log) rollback() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// Reset truncates the log back to an empty (header-only) state and
// syncs. Callers invoke it immediately after checkpointing the log's
// contents elsewhere and syncing that checkpoint, so a crash between the
// sync and the Reset leaves checkpoint + full log — replaying the log on
// top of the checkpoint must therefore be idempotent, which is the
// recovery contract durable nodes implement.
func (l *Log) Reset() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(headerSize); err != nil {
		return fmt.Errorf("wal: reset truncate: %w", err)
	}
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	l.size = headerSize
	l.count = 0
	l.broken = nil
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Size returns the current file size in bytes (header included).
func (l *Log) Size() int64 { return l.size }

// Count returns the number of valid records (replayed plus appended).
func (l *Log) Count() int64 { return l.count }

// Path returns the file path.
func (l *Log) Path() string { return l.path }

// Close syncs and closes the log.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	return l.f.Close()
}

// Remove deletes a closed log's file. It is the caller's signal that the
// log's contents have been checkpointed elsewhere.
func (l *Log) Remove() error {
	if !l.closed {
		return errors.New("wal: remove before close")
	}
	return os.Remove(l.path)
}

// Replay reads every valid record of the log at path without opening it
// for writing, calling fn for each. It tolerates a torn tail (stops there)
// and returns the number of valid records. A missing file yields 0, nil.
func Replay(path string, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %s", ErrNotWAL, path)
	}
	if hdr != magic {
		return 0, fmt.Errorf("%w: %s", ErrNotWAL, path)
	}
	var count int64
	var lenBuf [recordHeaderSize]byte
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			return count, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(lenBuf[0:4])
		wantCRC := binary.LittleEndian.Uint32(lenBuf[4:8])
		if length > MaxRecordSize {
			return count, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return count, nil
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return count, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return count, err
			}
		}
		count++
	}
}
