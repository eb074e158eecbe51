// Package provenance implements the paper's central abstraction: the
// provenance record, a structured collection of name-value pairs plus a
// derivation history that *is the name* of a sensor tuple set (Section
// II-A: "the provenance … is the single, unique identifier for that data
// set. In a very real sense, this makes the provenance the name of the
// data set. For this reason, provenance should be a first class property.
// Instead of encoding the name as a string, we represent it fully as a
// collection of name-value pairs.").
//
// A record's identity is the SHA-256 digest of its canonical binary
// encoding, which folds in the content digest of the data it names, its
// full attribute set, its parents, and the tool that produced it. This
// realizes PASS property P3 — "nonidentical data items do not have
// identical provenance" — by construction.
//
// Records come in three types mirroring the paper's usage:
//
//   - Raw: provenance of data collected directly from sensors.
//   - Derived: data produced by passing parents through a tool (Section
//     III-B: "the provenance of a derived data set is the provenance of
//     the original data plus the provenance of the tools used to do the
//     derivation").
//   - Annotation: a human or machine note attached to existing data
//     (Section I: "one might mark when individual sensors were replaced
//     with newer models").
package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// ID is the content-derived identity of a provenance record.
type ID [32]byte

// ZeroID is the invalid/absent ID.
var ZeroID ID

// String renders the ID as hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns the first 12 hex digits, for human-facing output.
func (id ID) Short() string { return hex.EncodeToString(id[:6]) }

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ZeroID }

// ParseID parses a 64-digit hex string.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("provenance: bad id %q: %w", s, err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("provenance: bad id length %d, want %d", len(b), len(id))
	}
	copy(id[:], b)
	return id, nil
}

// Kind enumerates attribute value types.
type Kind uint8

// Attribute value kinds.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindTime
	KindBool
	KindBytes
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindTime:
		return "time"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a typed attribute value. Exactly one field (selected by Kind)
// is meaningful.
type Value struct {
	Kind  Kind
	Str   string
	Int   int64 // also carries Time (unix nanoseconds) and Bool (0/1)
	Float float64
	Bytes []byte
}

// String, Int64, Float, TimeVal, Bool, and BytesVal construct Values.
func String(s string) Value     { return Value{Kind: KindString, Str: s} }
func Int64(v int64) Value       { return Value{Kind: KindInt, Int: v} }
func Float(v float64) Value     { return Value{Kind: KindFloat, Float: v} }
func TimeVal(t time.Time) Value { return Value{Kind: KindTime, Int: t.UnixNano()} }
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.Int = 1
	}
	return v
}
func BytesVal(b []byte) Value { return Value{Kind: KindBytes, Bytes: append([]byte(nil), b...)} }

// Time returns the value as a time.Time (meaningful for KindTime).
func (v Value) Time() time.Time { return time.Unix(0, v.Int) }

// Canonical returns the value's canonical binary encoding (kind tag plus
// payload). Two values are Equal exactly when their canonical encodings
// are byte-identical, so the encoding doubles as a map key.
func (v Value) Canonical() []byte { return v.appendCanonical(nil) }

// AsString renders any value for display and for conventional-filename
// encoding.
func (v Value) AsString() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindTime:
		return time.Unix(0, v.Int).UTC().Format(time.RFC3339Nano)
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case KindBytes:
		return hex.EncodeToString(v.Bytes)
	default:
		return ""
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindFloat:
		// Compare by bits so NaN == NaN for identity purposes.
		return math.Float64bits(v.Float) == math.Float64bits(o.Float)
	case KindBytes:
		return bytes.Equal(v.Bytes, o.Bytes)
	default:
		return v.Int == o.Int
	}
}

// appendCanonical appends the canonical encoding of the value.
func (v Value) appendCanonical(buf []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindString:
		n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, v.Str...)
	case KindInt, KindTime, KindBool:
		n := binary.PutVarint(tmp[:], v.Int)
		buf = append(buf, tmp[:n]...)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
	case KindBytes:
		n := binary.PutUvarint(tmp[:], uint64(len(v.Bytes)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, v.Bytes...)
	}
	return buf
}

func decodeValue(p []byte) (Value, []byte, error) {
	if len(p) == 0 {
		return Value{}, nil, errTruncated("value kind")
	}
	v := Value{Kind: Kind(p[0])}
	p = p[1:]
	switch v.Kind {
	case KindString:
		s, rest, err := decodeLenBytes(p, "string value")
		if err != nil {
			return Value{}, nil, err
		}
		v.Str = string(s)
		return v, rest, nil
	case KindInt, KindTime, KindBool:
		i, n := binary.Varint(p)
		if n <= 0 {
			return Value{}, nil, errTruncated("int value")
		}
		v.Int = i
		return v, p[n:], nil
	case KindFloat:
		if len(p) < 8 {
			return Value{}, nil, errTruncated("float value")
		}
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(p))
		return v, p[8:], nil
	case KindBytes:
		b, rest, err := decodeLenBytes(p, "bytes value")
		if err != nil {
			return Value{}, nil, err
		}
		v.Bytes = append([]byte(nil), b...)
		return v, rest, nil
	default:
		return Value{}, nil, fmt.Errorf("provenance: unknown value kind %d: %w", v.Kind, ErrCorrupt)
	}
}

// Attribute is one name-value pair of provenance metadata.
type Attribute struct {
	Key   string
	Value Value
}

// Attr constructs an attribute.
func Attr(key string, v Value) Attribute { return Attribute{Key: key, Value: v} }

// Well-known attribute keys. Domains are free to invent their own (Section
// II-A: "different communities will likely develop their own standards");
// these are the ones the built-in workloads and examples use.
const (
	KeyDomain      = "domain"       // e.g. "traffic", "medical", "volcano", "weather"
	KeySensorClass = "sensor-class" // e.g. "camera", "magnetometer", "ekg"
	KeyZone        = "zone"         // locality zone name, e.g. "boston"
	KeyRegion      = "region"       // finer placement within a zone
	KeyStart       = "t-start"      // window start, KindTime
	KeyEnd         = "t-end"        // window end, KindTime
	KeyOwner       = "owner"        // responsible party
	KeyPatient     = "patient"      // medical workload
	KeyEMT         = "emt"          // medical workload
	KeySensorID    = "sensor-id"    // may repeat (multi-valued)
	KeyNote        = "note"         // annotation text
	KeyUpgrade     = "upgrade"      // sensor model replacement marker
	KeyFormat      = "format"       // data encoding format
	KeySoftware    = "software"     // software version on the sensor devices
)

// Type distinguishes the three provenance record types.
type Type uint8

// Record types.
const (
	Raw Type = iota + 1
	Derived
	Annotation
)

func (t Type) String() string {
	switch t {
	case Raw:
		return "raw"
	case Derived:
		return "derived"
	case Annotation:
		return "annotation"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is a provenance record: the first-class, queryable name of one
// tuple set (or of an annotation on one).
type Record struct {
	// Type says how the named data came to be.
	Type Type
	// DataDigest is the content digest of the tuple set this record names
	// (zero for annotations, which name no data of their own).
	DataDigest [32]byte
	// DataSize is the encoded size in bytes of the named data; it rides
	// along so architecture models can charge realistic transfer costs
	// without holding the data.
	DataSize int64
	// Attributes is the name-value metadata. Multiple attributes may share
	// a key (a tuple set can have many sensor-id attributes).
	Attributes []Attribute
	// Parents are the IDs of the records this one descends from: the
	// derivation inputs for Derived, the annotated target(s) for
	// Annotation, empty for Raw.
	Parents []ID
	// Tool and ToolVersion identify the program that performed a
	// derivation, at the abstraction level the paper recommends (Section
	// V: report "gcc 3.3.3" rather than gcc's own full provenance).
	Tool        string
	ToolVersion string
	// Created is the record creation instant, unix nanoseconds. Part of
	// identity: the same content ingested at different instants is a
	// different historical event.
	Created int64
}

// Validation and decoding errors.
var (
	ErrCorrupt    = errors.New("provenance: corrupt record encoding")
	ErrInvalid    = errors.New("provenance: invalid record")
	ErrIDMismatch = errors.New("provenance: stored ID does not match content")
)

func errTruncated(what string) error {
	return fmt.Errorf("provenance: truncated %s: %w", what, ErrCorrupt)
}

// Validate checks structural invariants for the record type.
func (r *Record) Validate() error {
	switch r.Type {
	case Raw:
		if len(r.Parents) != 0 {
			return fmt.Errorf("%w: raw record has %d parents", ErrInvalid, len(r.Parents))
		}
	case Derived:
		if len(r.Parents) == 0 {
			return fmt.Errorf("%w: derived record has no parents", ErrInvalid)
		}
		if r.Tool == "" {
			return fmt.Errorf("%w: derived record has no tool", ErrInvalid)
		}
	case Annotation:
		if len(r.Parents) == 0 {
			return fmt.Errorf("%w: annotation has no target", ErrInvalid)
		}
	default:
		return fmt.Errorf("%w: unknown type %d", ErrInvalid, r.Type)
	}
	for _, a := range r.Attributes {
		if a.Key == "" {
			return fmt.Errorf("%w: empty attribute key", ErrInvalid)
		}
		if a.Value.Kind < KindString || a.Value.Kind > KindBytes {
			return fmt.Errorf("%w: attribute %q has invalid kind %d", ErrInvalid, a.Key, a.Value.Kind)
		}
	}
	seen := make(map[ID]struct{}, len(r.Parents))
	for _, p := range r.Parents {
		if p.IsZero() {
			return fmt.Errorf("%w: zero parent id", ErrInvalid)
		}
		if _, dup := seen[p]; dup {
			return fmt.Errorf("%w: duplicate parent %s", ErrInvalid, p.Short())
		}
		seen[p] = struct{}{}
	}
	return nil
}

// normalize sorts attributes into canonical order: by key, then by encoded
// value. Parent order is preserved — input order is meaningful for
// derivations (arg 1 vs arg 2).
func (r *Record) normalize() {
	sort.SliceStable(r.Attributes, func(i, j int) bool {
		if r.Attributes[i].Key != r.Attributes[j].Key {
			return r.Attributes[i].Key < r.Attributes[j].Key
		}
		vi := r.Attributes[i].Value.appendCanonical(nil)
		vj := r.Attributes[j].Value.appendCanonical(nil)
		return bytes.Compare(vi, vj) < 0
	})
}

const recordVersion = 1

// appendCanonical appends the canonical encoding (the hashed identity
// payload, also the storage format). The record must be normalized.
func (r *Record) appendCanonical(buf []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, recordVersion, byte(r.Type))
	buf = append(buf, r.DataDigest[:]...)
	n := binary.PutVarint(tmp[:], r.DataSize)
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.Attributes)))
	buf = append(buf, tmp[:n]...)
	for _, a := range r.Attributes {
		n = binary.PutUvarint(tmp[:], uint64(len(a.Key)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, a.Key...)
		buf = a.Value.appendCanonical(buf)
	}
	n = binary.PutUvarint(tmp[:], uint64(len(r.Parents)))
	buf = append(buf, tmp[:n]...)
	for _, p := range r.Parents {
		buf = append(buf, p[:]...)
	}
	n = binary.PutUvarint(tmp[:], uint64(len(r.Tool)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, r.Tool...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.ToolVersion)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, r.ToolVersion...)
	n = binary.PutVarint(tmp[:], r.Created)
	buf = append(buf, tmp[:n]...)
	return buf
}

// Encode returns the canonical binary encoding. The record is normalized
// in place first.
func (r *Record) Encode() []byte {
	r.normalize()
	return r.appendCanonical(nil)
}

// ComputeID normalizes the record and returns its content-derived identity.
func (r *Record) ComputeID() ID {
	return sha256.Sum256(r.Encode())
}

func decodeLenBytes(p []byte, what string) ([]byte, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return nil, nil, errTruncated(what)
	}
	return p[n : n+int(l)], p[n+int(l):], nil
}

// Decode parses a canonical encoding produced by Encode.
func Decode(data []byte) (*Record, error) {
	if len(data) < 2+32 {
		return nil, errTruncated("header")
	}
	if data[0] != recordVersion {
		return nil, fmt.Errorf("provenance: unsupported version %d: %w", data[0], ErrCorrupt)
	}
	r := &Record{Type: Type(data[1])}
	p := data[2:]
	copy(r.DataDigest[:], p[:32])
	p = p[32:]
	size, n := binary.Varint(p)
	if n <= 0 {
		return nil, errTruncated("data size")
	}
	r.DataSize = size
	p = p[n:]

	nattrs, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errTruncated("attribute count")
	}
	p = p[n:]
	if nattrs > uint64(len(p)) { // each attribute needs >= 1 byte
		return nil, errTruncated("attributes")
	}
	if nattrs > 0 {
		r.Attributes = make([]Attribute, 0, nattrs)
	}
	for i := uint64(0); i < nattrs; i++ {
		k, rest, err := decodeLenBytes(p, "attribute key")
		if err != nil {
			return nil, err
		}
		p = rest
		v, rest, err := decodeValue(p)
		if err != nil {
			return nil, err
		}
		p = rest
		r.Attributes = append(r.Attributes, Attribute{Key: string(k), Value: v})
	}

	nparents, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errTruncated("parent count")
	}
	p = p[n:]
	if nparents > uint64(len(p))/32 { // nparents*32 would wrap for a hostile count
		return nil, errTruncated("parents")
	}
	if nparents > 0 {
		r.Parents = make([]ID, nparents)
		for i := range r.Parents {
			copy(r.Parents[i][:], p[:32])
			p = p[32:]
		}
	}

	tool, p, err := decodeLenBytes(p, "tool")
	if err != nil {
		return nil, err
	}
	r.Tool = string(tool)
	toolVer, p, err := decodeLenBytes(p, "tool version")
	if err != nil {
		return nil, err
	}
	r.ToolVersion = string(toolVer)
	created, n := binary.Varint(p)
	if n <= 0 {
		return nil, errTruncated("created")
	}
	r.Created = created
	p = p[n:]
	if len(p) != 0 {
		return nil, fmt.Errorf("provenance: %d trailing bytes: %w", len(p), ErrCorrupt)
	}
	return r, nil
}

// Get returns the first value for key.
func (r *Record) Get(key string) (Value, bool) {
	for _, a := range r.Attributes {
		if a.Key == key {
			return a.Value, true
		}
	}
	return Value{}, false
}

// GetAll returns every value recorded under key.
func (r *Record) GetAll(key string) []Value {
	var out []Value
	for _, a := range r.Attributes {
		if a.Key == key {
			out = append(out, a.Value)
		}
	}
	return out
}

// Has reports whether the record carries the exact attribute (key, value).
func (r *Record) Has(key string, v Value) bool {
	for _, a := range r.Attributes {
		if a.Key == key && a.Value.Equal(v) {
			return true
		}
	}
	return false
}

// TimeRange returns the (t-start, t-end) window attributes if both are
// present.
func (r *Record) TimeRange() (start, end int64, ok bool) {
	s, ok1 := r.Get(KeyStart)
	e, ok2 := r.Get(KeyEnd)
	if !ok1 || !ok2 || s.Kind != KindTime || e.Kind != KindTime {
		return 0, 0, false
	}
	return s.Int, e.Int, true
}

// Builder assembles records fluently. All constructors normalize and
// validate at Build time.
type Builder struct {
	r   Record
	err error
}

// NewRaw starts a raw-collection record for data with the given digest and
// size.
func NewRaw(digest [32]byte, size int64) *Builder {
	return &Builder{r: Record{Type: Raw, DataDigest: digest, DataSize: size}}
}

// NewDerived starts a derivation record: tool applied to parents produced
// data with the given digest.
func NewDerived(digest [32]byte, size int64, tool, toolVersion string, parents ...ID) *Builder {
	return &Builder{r: Record{
		Type:        Derived,
		DataDigest:  digest,
		DataSize:    size,
		Tool:        tool,
		ToolVersion: toolVersion,
		Parents:     append([]ID(nil), parents...),
	}}
}

// NewAnnotation starts an annotation record on the given targets.
func NewAnnotation(targets ...ID) *Builder {
	return &Builder{r: Record{Type: Annotation, Parents: append([]ID(nil), targets...)}}
}

// Attr adds one attribute.
func (b *Builder) Attr(key string, v Value) *Builder {
	b.r.Attributes = append(b.r.Attributes, Attribute{Key: key, Value: v})
	return b
}

// Attrs adds many attributes.
func (b *Builder) Attrs(attrs ...Attribute) *Builder {
	b.r.Attributes = append(b.r.Attributes, attrs...)
	return b
}

// CreatedAt sets the creation instant (unix nanoseconds).
func (b *Builder) CreatedAt(t int64) *Builder {
	b.r.Created = t
	return b
}

// Build validates, normalizes, and returns the record plus its ID.
func (b *Builder) Build() (*Record, ID, error) {
	if b.err != nil {
		return nil, ZeroID, b.err
	}
	r := b.r // copy
	r.Attributes = append([]Attribute(nil), b.r.Attributes...)
	r.Parents = append([]ID(nil), b.r.Parents...)
	if err := r.Validate(); err != nil {
		return nil, ZeroID, err
	}
	r.normalize()
	return &r, r.ComputeID(), nil
}
