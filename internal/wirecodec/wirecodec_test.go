package wirecodec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 300)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendInt(b, 42)
	b = AppendInt(b, -7) // clamped to 0
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat64(b, 3.25)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendBytes(b, []byte("payload"))
	b = AppendBytes(b, nil)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("uvarint = %d, want 300", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint = %d, want max", v)
	}
	if v := r.Uvarint(); v != 42 {
		t.Errorf("int = %d, want 42", v)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("clamped int = %d, want 0", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bool round trip failed")
	}
	if v := r.Float64(); v != 3.25 {
		t.Errorf("float = %v, want 3.25", v)
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Errorf("float = %v, want -inf", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte("payload")) {
		t.Errorf("bytes = %q", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty bytes = %v, want nil", v)
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("string = %q", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("empty string = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("leftover bytes: %d", r.Len())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated varint
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// Every later read is a no-op zero value with the same error.
	if v := r.Uvarint(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("bytes after error = %v", v)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("sticky err = %v", r.Err())
	}
}

func TestReaderRejectsOverlongLength(t *testing.T) {
	// A length prefix larger than the remaining input must fail without
	// allocating the advertised size.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(append(b, 'x'))
	if v := r.Bytes(); v != nil {
		t.Errorf("bytes = %v, want nil", v)
	}
	if !errors.Is(r.Err(), ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid", r.Err())
	}

	// Int rejects values beyond the protocol range.
	r = NewReader(AppendUvarint(nil, math.MaxUint64))
	_ = r.Int()
	if !errors.Is(r.Err(), ErrInvalid) {
		t.Errorf("Int err = %v, want ErrInvalid", r.Err())
	}

	// Bool rejects bytes other than 0 and 1.
	r = NewReader([]byte{7})
	_ = r.Bool()
	if !errors.Is(r.Err(), ErrInvalid) {
		t.Errorf("Bool err = %v, want ErrInvalid", r.Err())
	}
}

func TestBytesAliasAndCopy(t *testing.T) {
	src := AppendBytes(nil, []byte("abc"))
	r := NewReader(src)
	aliased := r.Bytes()
	r = NewReader(src)
	copied := r.String()
	src[len(src)-1] = 'Z'
	if string(aliased) != "abZ" {
		t.Errorf("aliased = %q, want view of mutated input", aliased)
	}
	if copied != "abc" {
		t.Errorf("copied = %q, want original", copied)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not empty: %d", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	// Oversized buffers must be dropped, not pinned in the pool.
	PutBuf(make([]byte, 0, maxPooledBuf+1))
}

// TestBufPoolDropsSmall holds the pool's floor: a buffer below the starting
// capacity handed to PutBuf (an exact-size reply copy, say) never comes back
// from GetBuf, where its first append would have to grow it. Without the
// guard the pool's per-P slot returns it on the very next Get.
func TestBufPoolDropsSmall(t *testing.T) {
	for _, c := range []int{1, 16, minPooledBuf - 1} {
		small := make([]byte, 0, c)
		PutBuf(small)
		for i := 0; i < 4; i++ {
			b := GetBuf()
			if cap(b) < minPooledBuf {
				t.Fatalf("GetBuf returned a %d-byte buffer after PutBuf of cap %d, want >= %d", cap(b), c, minPooledBuf)
			}
			defer PutBuf(b)
		}
	}
}

// TestBufPoolAllocFree pins the package doc's promise: once warm, a
// GetBuf/PutBuf cycle allocates nothing (neither the buffer nor the *[]byte
// holder the pool stores).
func TestBufPoolAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	PutBuf(GetBuf())
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = append(b, 1, 2, 3)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Errorf("GetBuf/PutBuf allocations = %v, want 0", allocs)
	}
}

func TestEncodeAllocFree(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 256)
	buf := GetBuf()
	defer PutBuf(buf)
	allocs := testing.AllocsPerRun(100, func() {
		b := buf[:0]
		b = AppendUvarint(b, 123456)
		b = AppendFloat64(b, 1.5)
		b = AppendBytes(b, payload)
		b = AppendString(b, "clash.accept_object")
		if len(b) == 0 {
			t.Fatal("empty encode")
		}
		buf = b
	})
	if allocs != 0 {
		t.Errorf("encode allocations = %v, want 0", allocs)
	}
}

// TestAttrSection reads an attribute section in place: the scan returns the
// section whole and leaves the reader after it, a lookup resolves a repeated
// name to its last value and a missing one to false, and neither allocates.
func TestAttrSection(t *testing.T) {
	b := AppendAttrs(nil, map[string]float64{"speed": 80, "lat": -12.25})
	b = AppendString(b, "speed") // a repeated name, in a section built by hand
	b = AppendFloat64(b, 95)
	b[0] = 3
	section := b
	b = AppendAttrSection(nil, section)
	b = AppendString(b, "after")

	r := NewReader(b)
	got := r.AttrSection()
	if !bytes.Equal(got, section) || r.String() != "after" || r.Err() != nil {
		t.Fatalf("AttrSection = %x (then %v), want %x", got, r.Err(), section)
	}
	for name, want := range map[string]float64{"speed": 95, "lat": -12.25} {
		if v, ok := LookupAttr(got, name); !ok || v != want {
			t.Errorf("LookupAttr(%q) = %v, %v; want %v", name, v, ok, want)
		}
	}
	for _, sec := range [][]byte{got, AppendAttrs(nil, nil), nil, got[:len(got)-1]} {
		if v, ok := LookupAttr(sec, "fuel"); ok {
			t.Errorf("LookupAttr(%x, fuel) = %v, want missing", sec, v)
		}
	}
	if v, ok := LookupAttr(got[:len(got)-1], "lat"); ok {
		t.Errorf("LookupAttr on a truncated section = %v, want missing", v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		if sec := r.AttrSection(); sec == nil {
			t.Fatal("scan failed")
		}
		if _, ok := LookupAttr(section, "lat"); !ok {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Errorf("scan and lookup allocations = %v, want 0", allocs)
	}
}

// FuzzReaderPrimitives checks that arbitrary input never panics the reader
// and that declared lengths are validated before use.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add(AppendBytes(AppendUvarint(nil, 5), []byte("hello")))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uvarint()
		_ = r.Int()
		_ = r.Bool()
		_ = r.Float64()
		b := r.Bytes()
		if len(b) > len(data) {
			t.Fatalf("Bytes returned %d bytes from %d-byte input", len(b), len(data))
		}
		_ = r.String()
		_ = r.Err()
	})
}
