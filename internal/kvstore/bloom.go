package kvstore

import (
	"encoding/binary"
	"hash/fnv"
)

// bloomFilter is a standard Bloom filter with double hashing (Kirsch–
// Mitzenmacher): k probe positions derived from two FNV-based hashes.
// SSTables persist one filter per table so point lookups can skip tables
// that cannot contain the key — the paper's "Speed" criterion notes that
// provenance metadata is accessed more frequently than its data, so
// negative lookups must be cheap.
type bloomFilter struct {
	bits  []byte
	k     uint32
	nbits uint64
}

// newBloomFilter sizes a filter for n keys at bitsPerKey density.
func newBloomFilter(n int, bitsPerKey int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	nbits := uint64(n * bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	k := uint32(float64(bitsPerKey) * 0.69) // ln(2) * bits/key
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloomFilter{
		bits:  make([]byte, (nbits+7)/8),
		k:     k,
		nbits: nbits,
	}
}

func bloomHashes(key []byte) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write(key)
	a := h1.Sum64()
	// Second hash: rehash the first with a salt; avoids a second pass over
	// the key and is sufficient for double hashing.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], a^0x9E3779B97F4A7C15)
	h2 := fnv.New64a()
	h2.Write(buf[:])
	return a, h2.Sum64()
}

func (b *bloomFilter) add(key []byte) {
	h, d := bloomHashes(key)
	for i := uint32(0); i < b.k; i++ {
		pos := (h + uint64(i)*d) % b.nbits
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

func (b *bloomFilter) mayContain(key []byte) bool {
	h, d := bloomHashes(key)
	for i := uint32(0); i < b.k; i++ {
		pos := (h + uint64(i)*d) % b.nbits
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal encodes the filter: k u32 | nbits u64 | bits.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 12+len(b.bits))
	binary.LittleEndian.PutUint32(out[0:4], b.k)
	binary.LittleEndian.PutUint64(out[4:12], b.nbits)
	copy(out[12:], b.bits)
	return out
}

func unmarshalBloom(data []byte) (*bloomFilter, bool) {
	if len(data) < 12 {
		return nil, false
	}
	b := &bloomFilter{
		k:     binary.LittleEndian.Uint32(data[0:4]),
		nbits: binary.LittleEndian.Uint64(data[4:12]),
	}
	if b.k == 0 || b.k > 64 || b.nbits == 0 {
		return nil, false
	}
	// Bound nbits by the bytes present first: near 2^64, nbits+7 wraps.
	if n := uint64(len(data) - 12); b.nbits > n*8 || (b.nbits+7)/8 != n {
		return nil, false
	}
	b.bits = data[12:]
	return b, true
}
