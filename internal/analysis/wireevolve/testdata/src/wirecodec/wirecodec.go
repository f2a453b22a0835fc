// Package wirecodec is a testdata stand-in for clash/internal/wirecodec: the
// analyzers resolve it by the package path's final segment.
package wirecodec

func AppendInt(b []byte, v int64) []byte       { return b }
func AppendUvarint(b []byte, v uint64) []byte  { return b }
func AppendBytes(b []byte, p []byte) []byte    { return b }
func AppendString(b []byte, s string) []byte   { return b }
func AppendBool(b []byte, v bool) []byte       { return b }
func AppendFloat64(b []byte, f float64) []byte { return b }

func AppendAttrs(b []byte, attrs map[string]float64) []byte { return b }
func AppendAttrSection(b, section []byte) []byte            { return b }
func AppendQueryRecord(b, rec []byte) []byte                { return b }

func GetBuf() []byte  { return nil }
func PutBuf(b []byte) {}

type Reader struct {
	data []byte
	err  error
}

func NewReader(data []byte) *Reader { return &Reader{data: data} }

func (r *Reader) Int() int64          { return 0 }
func (r *Reader) Uvarint() uint64     { return 0 }
func (r *Reader) Bytes() []byte       { return nil }
func (r *Reader) String() string      { return "" }
func (r *Reader) Bool() bool          { return false }
func (r *Reader) Float64() float64    { return 0 }
func (r *Reader) AttrSection() []byte { return nil }
func (r *Reader) QueryRecord() []byte { return nil }
func (r *Reader) Err() error          { return r.err }
func (r *Reader) Len() int            { return len(r.data) }
