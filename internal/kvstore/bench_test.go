package kvstore

import (
	"fmt"
	"testing"
)

// Ablation benchmarks for the storage engine design choices: bloom
// filters on point lookups, batch sizes on the WAL, and scan throughput.

func benchStore(b *testing.B, opts Options) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func fillKeys(b testing.TB, s *Store, n int) [][]byte {
	b.Helper()
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprintf("value-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return keys
}

func BenchmarkPut(b *testing.B) {
	s := benchStore(b, Options{})
	val := []byte("a-reasonably-sized-value-for-a-provenance-record-entry")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchedPuts(b *testing.B) {
	for _, batchSize := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch-%d", batchSize), func(b *testing.B) {
			s := benchStore(b, Options{})
			val := []byte("value")
			b.ResetTimer()
			i := 0
			for i < b.N {
				var batch Batch
				for j := 0; j < batchSize && i < b.N; j++ {
					batch.Put([]byte(fmt.Sprintf("key-%08d", i)), val)
					i++
				}
				if err := s.Apply(&batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGetFromTables(b *testing.B) {
	s := benchStore(b, Options{})
	keys := fillKeys(b, s, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGetFromTableAllocs pins the table read path at no allocation per
// entry decoded: a Get served from a table copies its value out of the
// mapping, and the bound leaves room for one allocation more. A lookup
// that builds a buffered reader and copies every entry it passes takes
// about 20.
func TestGetFromTableAllocs(t *testing.T) {
	s := openTest(t, Options{})
	keys := fillKeys(t, s, 2000)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Get(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i += 7
	})
	if allocs > 2 {
		t.Fatalf("Get from a table allocates %v times, want <= 2", allocs)
	}
}

// BenchmarkGetMissing isolates the bloom filter's value: negative lookups
// across several tables.
func BenchmarkGetMissing(b *testing.B) {
	for _, bits := range []int{1, 10} {
		b.Run(fmt.Sprintf("bloom-bits-%d", bits), func(b *testing.B) {
			s := benchStore(b, Options{BloomBitsPerKey: bits, DisableAutoCompact: true})
			for t := 0; t < 4; t++ { // four tables to consult
				for i := 0; i < 5000; i++ {
					s.Put([]byte(fmt.Sprintf("t%d-key-%06d", t, i)), []byte("v"))
				}
				s.Flush()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get([]byte(fmt.Sprintf("absent-%d", i))); err != ErrNotFound {
					b.Fatal("unexpected hit")
				}
			}
		})
	}
}

func BenchmarkScan(b *testing.B) {
	s := benchStore(b, Options{})
	fillKeys(b, s, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
		if n != 20000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// TestScanAllocsPerKey pins Scan at its one copy of each key and value:
// entries decoded from a table alias the mapping and cost nothing more.
func TestScanAllocsPerKey(t *testing.T) {
	const n = 5000
	s := openTest(t, Options{})
	fillKeys(t, s, n)
	allocs := testing.AllocsPerRun(5, func() {
		seen := 0
		if err := s.Scan(nil, nil, func(k, v []byte) bool { seen++; return true }); err != nil || seen != n {
			t.Fatalf("scanned %d keys (%v), want %d", seen, err, n)
		}
	})
	if perKey := allocs / n; perKey > 2.1 {
		t.Fatalf("Scan allocates %.2f times per key, want <= 2.1", perKey)
	}
}

func BenchmarkCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchStore(b, Options{DisableAutoCompact: true})
		for t := 0; t < 4; t++ {
			for k := 0; k < 3000; k++ {
				s.Put([]byte(fmt.Sprintf("key-%06d", k)), []byte(fmt.Sprintf("gen-%d", t)))
			}
			s.Flush()
		}
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
