// Package wirecodec provides the low-level binary encoding primitives the
// CLASH wire protocol is built from: append-style writers (varint, fixed
// width, length-prefixed bytes) that grow a caller-owned buffer without
// intermediate allocations, a sticky-error Reader for decoding, and a
// sync.Pool of scratch buffers so the steady-state encode path allocates
// nothing.
//
// Encoding conventions:
//
//   - unsigned integers: LEB128 varints (encoding/binary.AppendUvarint)
//   - booleans: one byte, 0 or 1
//   - float64: 8 fixed bytes, IEEE-754 bits big-endian
//   - byte strings / strings: uvarint length followed by the raw bytes
//   - attribute sections: a uvarint count, then per attribute its name as a
//     string and its value as a float64; read and matched in place
//
// Decoders validate every length against the remaining input before touching
// it, so malformed input errors out without over-allocating.
package wirecodec

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// Decoding errors.
var (
	// ErrTruncated is returned when the input ends before a value does.
	ErrTruncated = errors.New("wirecodec: truncated input")
	// ErrInvalid is returned when a value is structurally invalid (varint
	// overflow, length exceeding the remaining input).
	ErrInvalid = errors.New("wirecodec: invalid encoding")
)

// AppendUvarint appends v as a LEB128 varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt appends a non-negative int as a uvarint. Negative values are
// clamped to zero (protocol integers — depths, counts, kinds — are never
// negative; clamping keeps the encoder total).
func AppendInt(b []byte, v int) []byte {
	if v < 0 {
		v = 0
	}
	return binary.AppendUvarint(b, uint64(v))
}

// AppendBool appends a boolean as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE-754 bits of f, big-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendAttrs appends attrs as an attribute section, in the map's iteration
// order.
func AppendAttrs(b []byte, attrs map[string]float64) []byte {
	b = AppendInt(b, len(attrs))
	for k, v := range attrs {
		b = AppendString(b, k)
		b = AppendFloat64(b, v)
	}
	return b
}

// AppendAttrSection appends an attribute section byte for byte, as
// Reader.AttrSection returned it.
func AppendAttrSection(b, section []byte) []byte {
	return append(b, section...)
}

// QueryFormat is the first byte of a binary query record. No JSON text
// starts with it, so a JSON record sent by mistake is refused at once.
const QueryFormat byte = 0x01

// minPredicate is the fewest bytes one predicate of a query record takes:
// an empty name's length, the operator and the value.
const minPredicate = 1 + 1 + 8

// AppendQueryRecord appends a query record with its length prefix, byte for
// byte as Reader.QueryRecord returned it.
func AppendQueryRecord(b, rec []byte) []byte {
	return AppendBytes(b, rec)
}

// LookupAttr returns the value of the named attribute in an attribute
// section. A name that occurs more than once resolves to its last value, as
// a map built from the section would; a missing name, or a section that is
// malformed, reports false.
//
//clash:hotpath
func LookupAttr(section []byte, name string) (v float64, ok bool) {
	r := Reader{b: section}
	for n := r.Int(); n > 0 && r.err == nil; n-- {
		k := r.Bytes()
		f := r.Float64()
		if r.err == nil && string(k) == name {
			v, ok = f, true
		}
	}
	if r.err != nil {
		return 0, false
	}
	return v, ok
}

// Reader decodes values sequentially from a byte slice. The first decoding
// failure sticks: every later call returns a zero value and Err reports the
// failure, so callers check the error once after reading all fields.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader never mutates b; Bytes
// results alias it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads one varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(ErrInvalid)
		}
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a uvarint into an int, failing on values beyond the int range.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		// Protocol ints (depths, counts, statuses) are small; anything this
		// large is a malformed or hostile frame.
		r.fail(ErrInvalid)
		return 0
	}
	return int(v)
}

// Bool reads one boolean byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.fail(ErrTruncated)
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.fail(ErrInvalid)
		return false
	}
	return v == 1
}

// Float64 reads 8 fixed bytes as an IEEE-754 float64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the input
// buffer; callers that retain it past the buffer's lifetime must copy.
// A zero length yields nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(ErrInvalid)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Bytes())
}

// AttrSection reads an attribute section without decoding it: every name and
// value is bounds-checked and skipped, and the section is returned whole,
// aliasing the input, so reading it allocates nothing. A count larger than
// the remaining input could hold (9 bytes per attribute at least) is invalid
// before any attribute is read.
//
//clash:hotpath
func (r *Reader) AttrSection() []byte {
	start := r.b
	n := r.Int()
	if r.err == nil && n > len(r.b)/9 {
		r.fail(ErrInvalid)
	}
	for ; n > 0 && r.err == nil; n-- {
		r.Bytes()
		r.Float64()
	}
	if r.err != nil {
		return nil
	}
	used := len(start) - len(r.b)
	return start[:used:used]
}

// QueryRecord reads a length-prefixed query record and returns it, aliasing
// the input. The record is validated in place: its head, its predicate
// count against the remaining bytes and every predicate's bounds. Reading
// it allocates nothing.
func (r *Reader) QueryRecord() []byte {
	rec := r.Bytes()
	if r.err != nil {
		return nil
	}
	if !validQueryRecord(rec) {
		r.fail(ErrInvalid)
		return nil
	}
	return rec
}

// validQueryRecord reports whether a binary query record reads whole.
// Fields a later writer appends after the predicates are skipped.
func validQueryRecord(rec []byte) bool {
	r := Reader{b: rec}
	_, _, _, n := r.QueryHeader()
	for ; n > 0 && r.err == nil; n-- {
		r.Predicate()
	}
	return r.err == nil
}

// QueryHeader reads the head of a binary query record: its format byte, the
// query ID (aliasing the input), the region's depth and value and the
// predicate count. Another format byte is invalid, and so is a count larger
// than the remaining input could hold (10 bytes per predicate at least),
// before any predicate is read.
func (r *Reader) QueryHeader() (id []byte, bits int, value uint64, preds int) {
	if r.err != nil {
		return nil, 0, 0, 0
	}
	if len(r.b) == 0 {
		r.fail(ErrTruncated)
		return nil, 0, 0, 0
	}
	if r.b[0] != QueryFormat {
		r.fail(ErrInvalid)
		return nil, 0, 0, 0
	}
	r.b = r.b[1:]
	id = r.Bytes()
	bits = r.Int()
	value = r.Uvarint()
	preds = r.Int()
	if r.err == nil && preds > len(r.b)/minPredicate {
		r.fail(ErrInvalid)
	}
	if r.err != nil {
		return nil, 0, 0, 0
	}
	return id, bits, value, preds
}

// Predicate reads one predicate of a binary query record: the attribute
// name (aliasing the input), the operator byte and the value.
func (r *Reader) Predicate() (name []byte, op byte, v float64) {
	name = r.Bytes()
	if r.err == nil && len(r.b) == 0 {
		r.fail(ErrTruncated)
	}
	if r.err != nil {
		return nil, 0, 0
	}
	op = r.b[0]
	r.b = r.b[1:]
	v = r.Float64()
	if r.err != nil {
		return nil, 0, 0
	}
	return name, op, v
}

// bufPool recycles encode scratch buffers. Buffers start at minPooledBuf
// bytes and grow with use; oversized ones (a rare huge state transfer) are
// dropped instead of pinned, and so are undersized ones (an exact-size copy
// handed in by mistake), which would make the next GetBuf grow. The pool stores *[]byte so a Put does not box a slice
// header; the empty *[]byte holders themselves cycle through holderPool, so a
// steady-state GetBuf/PutBuf pair allocates nothing.
var (
	bufPool = sync.Pool{
		New: func() any { b := make([]byte, 0, minPooledBuf); return &b },
	}
	holderPool = sync.Pool{
		New: func() any { return new([]byte) },
	}
)

// minPooledBuf is the capacity of a fresh pooled buffer and the smallest
// one PutBuf keeps; maxPooledBuf bounds the capacity of buffers returned to
// the pool.
const (
	minPooledBuf = 512
	maxPooledBuf = 1 << 20
)

// GetBuf returns an empty scratch buffer from the pool. Append to it freely
// (reassigning on growth) and hand the final slice back with PutBuf.
func GetBuf() []byte {
	h := bufPool.Get().(*[]byte)
	b := (*h)[:0]
	*h = nil
	holderPool.Put(h)
	return b
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one) to the
// pool. The caller must not use b afterwards. A buffer below the pool's
// starting size is dropped, so any slice may be passed safely.
func PutBuf(b []byte) {
	if cap(b) < minPooledBuf || cap(b) > maxPooledBuf {
		return
	}
	h := holderPool.Get().(*[]byte)
	*h = b[:0]
	bufPool.Put(h)
}
