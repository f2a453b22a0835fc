// Package wire exercises MarshalWire/UnmarshalWire parity and evolution.
package wire

import (
	"errors"

	"wirecodec"
)

var errShort = errors.New("record overruns payload")

// ---- goodMsg: helpers, repeated groups, overflow guards, and a guarded
// trailing field, all in parity. No diagnostics. ----

type pair struct {
	K string
	V float64
}

type goodMsg struct {
	Seq   int64
	Name  string
	Attrs []pair
	Loose bool // added after v1: trailing, optional-on-read
}

func appendPair(b []byte, p pair) []byte {
	b = wirecodec.AppendString(b, p.K)
	b = wirecodec.AppendFloat64(b, p.V)
	return b
}

func readPair(r *wirecodec.Reader) pair {
	return pair{K: r.String(), V: r.Float64()}
}

func (m *goodMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.Seq)
	b = wirecodec.AppendString(b, m.Name)
	b = wirecodec.AppendUvarint(b, uint64(len(m.Attrs)))
	for _, p := range m.Attrs {
		b = appendPair(b, p)
	}
	b = wirecodec.AppendBool(b, m.Loose)
	return b
}

func (m *goodMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Seq = r.Int()
	m.Name = r.String()
	n := int(r.Uvarint())
	if n > r.Len() { // overflow guard, not an optional marker
		return errShort
	}
	for i := 0; i < n; i++ {
		m.Attrs = append(m.Attrs, readPair(r))
	}
	if r.Err() == nil && r.Len() > 0 {
		m.Loose = r.Bool()
	}
	return r.Err()
}

// ---- ackMsg: a once-empty reply that grew fields, every one of them
// trailing and optional-on-read (an old peer's empty reply decodes as
// zero). No diagnostics. ----

type ackMsg struct {
	Incarnation uint64
	Version     uint64
}

func (m *ackMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendUvarint(b, m.Incarnation)
	return wirecodec.AppendUvarint(b, m.Version)
}

func (m *ackMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	if r.Err() == nil && r.Len() > 0 {
		m.Incarnation = r.Uvarint()
		m.Version = r.Uvarint()
	}
	return r.Err()
}

// ---- sectionMsg: an attribute section written from a map or copied as it
// was read, one field either way. No diagnostics. ----

type sectionMsg struct {
	Attrs   map[string]float64
	Section []byte
	Tag     string
}

func (m *sectionMsg) MarshalWire(b []byte) []byte {
	if m.Section != nil {
		b = wirecodec.AppendAttrSection(b, m.Section)
	} else {
		b = wirecodec.AppendAttrs(b, m.Attrs)
	}
	return wirecodec.AppendString(b, m.Tag)
}

func (m *sectionMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Section = r.AttrSection()
	m.Tag = r.String()
	return r.Err()
}

// ---- branchMsg: if/else branches with different layouts still splice in
// order, so reading only one of them is a finding. ----

type branchMsg struct {
	Wide bool
	N    int64
	Name string
}

func (m *branchMsg) MarshalWire(b []byte) []byte {
	if m.Wide {
		b = wirecodec.AppendInt(b, m.N)
	} else {
		b = wirecodec.AppendString(b, m.Name)
	}
	return b
}

func (m *branchMsg) UnmarshalWire(data []byte) error { // want `branchMsg: MarshalWire and UnmarshalWire disagree on wire layout: MarshalWire writes 2 fields but UnmarshalWire reads 1`
	r := wirecodec.NewReader(data)
	m.N = r.Int()
	return r.Err()
}

// ---- sectionSkewMsg: a section written where an int is read. ----

type sectionSkewMsg struct {
	Attrs map[string]float64
}

func (m *sectionSkewMsg) MarshalWire(b []byte) []byte {
	return wirecodec.AppendAttrs(b, m.Attrs)
}

func (m *sectionSkewMsg) UnmarshalWire(data []byte) error { // want `sectionSkewMsg: MarshalWire and UnmarshalWire disagree on wire layout: field 1: attrs written but int read`
	r := wirecodec.NewReader(data)
	_ = r.Int()
	return r.Err()
}

// ---- recordMsg: a query record is one field, written and read by its own
// pair. No diagnostics. ----

type recordMsg struct {
	Query      []byte
	Subscriber string
}

func (m *recordMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendQueryRecord(b, m.Query)
	return wirecodec.AppendString(b, m.Subscriber)
}

func (m *recordMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Query = r.QueryRecord()
	m.Subscriber = r.String()
	return r.Err()
}

// ---- recordSkewMsg: plain bytes written where a query record is read. ----

type recordSkewMsg struct {
	Query []byte
}

func (m *recordSkewMsg) MarshalWire(b []byte) []byte {
	return wirecodec.AppendBytes(b, m.Query)
}

func (m *recordSkewMsg) UnmarshalWire(data []byte) error { // want `recordSkewMsg: MarshalWire and UnmarshalWire disagree on wire layout: field 1: bytes written but query read`
	r := wirecodec.NewReader(data)
	m.Query = r.QueryRecord()
	return r.Err()
}

// ---- swappedMsg: the classic transposition bug. ----

type swappedMsg struct {
	Seq  int64
	Name string
}

func (m *swappedMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.Seq)
	b = wirecodec.AppendString(b, m.Name)
	return b
}

func (m *swappedMsg) UnmarshalWire(data []byte) error { // want `swappedMsg: MarshalWire and UnmarshalWire disagree on wire layout: field 1: int written but string read`
	r := wirecodec.NewReader(data)
	m.Name = r.String()
	m.Seq = r.Int()
	return r.Err()
}

// ---- countMsg: a field written but never read. ----

type countMsg struct {
	A, B int64
	Tag  string
}

func (m *countMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.A)
	b = wirecodec.AppendInt(b, m.B)
	b = wirecodec.AppendString(b, m.Tag)
	return b
}

func (m *countMsg) UnmarshalWire(data []byte) error { // want `countMsg: MarshalWire and UnmarshalWire disagree on wire layout: MarshalWire writes 3 fields but UnmarshalWire reads 2`
	r := wirecodec.NewReader(data)
	m.A = r.Int()
	m.B = r.Int()
	return r.Err()
}

// ---- nonTrailingMsg: a field added in the middle, read unguarded after an
// optional group — old peers misparse. ----

type nonTrailingMsg struct {
	Seq  int64
	Ext  bool
	Name string
}

func (m *nonTrailingMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.Seq)
	b = wirecodec.AppendBool(b, m.Ext)
	b = wirecodec.AppendString(b, m.Name)
	return b
}

func (m *nonTrailingMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Seq = r.Int()
	if r.Len() > 0 {
		m.Ext = r.Bool()
	}
	m.Name = r.String() // want `unguarded string read after an optional trailing field`
	return r.Err()
}

// ---- delegation: whole-payload handoff to a sub-message. ----

type innerA struct{ X int64 }

func (m *innerA) MarshalWire(b []byte) []byte {
	return wirecodec.AppendInt(b, m.X)
}

func (m *innerA) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.X = r.Int()
	return r.Err()
}

type innerB struct{ Y int64 }

func (m *innerB) MarshalWire(b []byte) []byte {
	return wirecodec.AppendInt(b, m.Y)
}

func (m *innerB) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Y = r.Int()
	return r.Err()
}

type delegateMsg struct{ Inner innerA }

func (m *delegateMsg) MarshalWire(b []byte) []byte {
	return m.Inner.MarshalWire(b)
}

func (m *delegateMsg) UnmarshalWire(data []byte) error {
	return m.Inner.UnmarshalWire(data)
}

type delegateBadMsg struct {
	A innerA
	B innerB
}

func (m *delegateBadMsg) MarshalWire(b []byte) []byte {
	return m.A.MarshalWire(b)
}

func (m *delegateBadMsg) UnmarshalWire(data []byte) error { // want `delegateBadMsg: MarshalWire and UnmarshalWire disagree on wire layout: field 1: sub-message innerA written but sub-message innerB read`
	return m.B.UnmarshalWire(data)
}

// ---- nestedMsg: length-prefixed sub-records built in a scratch buffer; the
// scratch chain must not pollute the outer order. ----

type nestedMsg struct {
	Groups []innerA
}

func (m *nestedMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendUvarint(b, uint64(len(m.Groups)))
	scratch := make([]byte, 0, 64)
	for i := range m.Groups {
		scratch = m.Groups[i].MarshalWire(scratch[:0])
		b = wirecodec.AppendBytes(b, scratch)
	}
	return b
}

func (m *nestedMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	n := int(r.Uvarint())
	if n > r.Len() {
		return errShort
	}
	for i := 0; i < n; i++ {
		rec := r.Bytes()
		var g innerA
		if err := g.UnmarshalWire(rec); err != nil {
			return err
		}
		m.Groups = append(m.Groups, g)
	}
	return r.Err()
}

// ---- suppression: a deliberate asymmetry with the mandatory reason. ----

type legacyMsg struct {
	A int64
	B int64
}

func (m *legacyMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.A)
	b = wirecodec.AppendInt(b, m.B)
	return b
}

//clashvet:ignore wireevolve v1 decoder intentionally drops the reserved second field
func (m *legacyMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.A = r.Int()
	return r.Err()
}

// ---- malformed directive: no reason, so nothing is suppressed. ----

type badDirMsg struct {
	A int64
	B int64
}

func (m *badDirMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.A)
	b = wirecodec.AppendInt(b, m.B)
	return b
}

/* want `malformed //clashvet:ignore directive: missing reason` */ //clashvet:ignore wireevolve
func (m *badDirMsg) UnmarshalWire(data []byte) error {             // want `badDirMsg: MarshalWire and UnmarshalWire disagree on wire layout`
	r := wirecodec.NewReader(data)
	m.A = r.Int()
	return r.Err()
}
