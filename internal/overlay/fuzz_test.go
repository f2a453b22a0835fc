package overlay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"clash/internal/core"
	"clash/internal/wirecodec"
)

// FuzzReadFrame feeds arbitrary byte streams to both frame decoders: the
// bufio stream reader (TCP) and the in-place slice decoder (MemNetwork). They
// must agree on every input — the same seq, type and payload, or the same
// error class — and the stream reader must error on malformed input, never
// panic, never return a payload longer than the input, and always
// round-trip what appendFrame produced.
func FuzzReadFrame(f *testing.F) {
	seed := func(seq uint64, typ byte, payload []byte) {
		buf, err := appendFrame(nil, seq, typ, payload)
		if err == nil {
			f.Add(buf)
		}
	}
	seed(1, typePing, nil)
	seed(1<<40, typeAcceptObject, []byte("payload"))
	seed(7, typeReplyErr, bytes.Repeat([]byte{0xEE}, 300))
	// Oversized declared length with a short stream.
	var over [frameHeaderSize]byte
	binary.BigEndian.PutUint32(over[0:4], maxFrameSize+1)
	over[12] = wireVersion
	f.Add(over[:])
	// Large declared length, truncated body.
	var trunc [frameHeaderSize + 3]byte
	binary.BigEndian.PutUint32(trunc[0:4], 1<<20)
	trunc[12] = wireVersion
	f.Add(trunc[:])
	// Empty input, a partial header, an unknown version, trailing bytes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	var badVersion [frameHeaderSize]byte
	badVersion[12] = wireVersion + 1
	f.Add(badVersion[:])
	two, _ := appendFrame(nil, 2, typePing, []byte("a"))
	two, _ = appendFrame(two, 3, typePing, []byte("b"))
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrameInto(bufio.NewReader(bytes.NewReader(data)), nil)
		inPlace, ierr := decodeFrame(data)
		if c, ic := frameErrClass(err), frameErrClass(ierr); c != ic {
			t.Fatalf("stream reader: %v (%s); slice decoder: %v (%s)", err, c, ierr, ic)
		}
		if frameErrClass(err) != "short" && (got.seq != inPlace.seq || got.typ != inPlace.typ) {
			t.Fatalf("headers differ: stream (%d, %#x), in place (%d, %#x)", got.seq, got.typ, inPlace.seq, inPlace.typ)
		}
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) && len(data) >= frameHeaderSize {
				// Recoverable skip: the header must have been decoded.
				want := binary.BigEndian.Uint64(data[4:12])
				if got.seq != want {
					t.Fatalf("oversized frame seq = %d, want %d", got.seq, want)
				}
			}
			return
		}
		if !bytes.Equal(got.payload, inPlace.payload) {
			t.Fatalf("payloads differ: stream %x, in place %x", got.payload, inPlace.payload)
		}
		if len(got.payload) > len(data) {
			t.Fatalf("payload %d bytes from %d-byte input", len(got.payload), len(data))
		}
		// Whatever parsed must re-encode to the bytes consumed.
		enc, eerr := appendFrame(nil, got.seq, got.typ, got.payload)
		if eerr != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", eerr)
		}
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, data[:len(enc)])
		}
	})
}

// frameErrClass buckets a frame decode error for the parity check: the
// stream reader reports a short input as io.EOF or io.ErrUnexpectedEOF
// depending on where the bytes ran out, so both count as "short".
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadFrame):
		return "bad frame"
	case errors.Is(err, ErrFrameTooLarge):
		return "too large"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "short"
	default:
		return "other: " + err.Error()
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to every MarshalWire/UnmarshalWire
// pair in the protocol (overlay-local and core messages): decoding must never
// panic or over-allocate, and anything that decodes must re-encode and decode
// again to the same message (round-trip identity on the decoded value).
func FuzzCodecRoundTrip(f *testing.F) {
	for _, msg := range overlayWireCases() {
		f.Add(msg.MarshalWire(nil))
	}
	coreMsgs := []wireMsg{
		&core.AcceptObjectMsg{KeyValue: 0b1011, KeyBits: 16, Depth: 3, Kind: core.ObjectData, Payload: []byte("p")},
		&core.AcceptObjectReplyMsg{Status: core.StatusOK, GroupValue: 3, GroupBits: 2, CorrectDepth: 2, Matches: []string{"q"}},
		&core.AcceptBatchMsg{Objects: []core.AcceptObjectMsg{{KeyValue: 1, KeyBits: 4, Depth: 1, Kind: core.ObjectData}}},
		&core.AcceptBatchReplyMsg{Replies: []core.AcceptObjectReplyMsg{{Status: core.StatusIncorrectDepth, DMin: 2}}},
		&core.AcceptKeyGroupMsg{GroupValue: 1, GroupBits: 3, Parent: "p", Queries: [][]byte{[]byte("q")}},
		&core.LoadReportMsg{GroupValue: 1, GroupBits: 1, Load: 0.5, From: "n"},
		&core.ReleaseKeyGroupMsg{GroupValue: 1, GroupBits: 1, Parent: "p"},
		&core.ReleaseKeyGroupReplyMsg{GroupValue: 1, GroupBits: 1, OK: true, Queries: [][]byte{[]byte("s")}},
	}
	for _, msg := range coreMsgs {
		f.Add(msg.MarshalWire(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		targets := append(overlayWireCases(), coreMsgs...)
		for _, proto := range targets {
			msg := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wireMsg)
			if err := msg.UnmarshalWire(data); err != nil {
				continue
			}
			// Decoded fine: encode and decode again must be identity. The
			// comparison goes through %#v (deterministic: sorted map keys)
			// rather than DeepEqual so NaN attribute values — which are
			// legal on the wire — do not false-positive as divergence.
			enc := msg.MarshalWire(nil)
			again := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(wireMsg)
			if err := again.UnmarshalWire(enc); err != nil {
				t.Fatalf("%T: re-decode of re-encode failed: %v", msg, err)
			}
			if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", msg); got != want {
				t.Fatalf("%T: round trip diverged:\n got %s\nwant %s", msg, got, want)
			}
		}
	})
}

// FuzzReplicateScan holds scanReplicate, the receipt-time validation of a
// replica push, to replicateMsg.UnmarshalWire (checkReplicateScan) from a
// corpus of full pushes, a delta and a heartbeat.
func FuzzReplicateScan(f *testing.F) {
	// Every prefix: the pre-Base, pre-span and pre-Loose layouts among them.
	addPrefixes(f, fuzzFullPush, fuzzDeltaPush, fuzzHeartbeat)
	f.Fuzz(checkReplicateScan)
}

// FuzzReplicateDeltaScan runs FuzzReplicateScan's property from deltas
// alone, so that -fuzz can explore the Base > 0 layout on its own.
func FuzzReplicateDeltaScan(f *testing.F) {
	addPrefixes(f, fuzzDeltaPush, fuzzHeartbeat)
	f.Fuzz(checkReplicateScan)
}

var (
	fuzzGroups = []replicaGroupRec{
		{GroupValue: 1, GroupBits: 2, Parent: "p", Epoch: 3, Queries: [][]byte{[]byte("q1"), []byte("q2")}},
		{GroupValue: 0, GroupBits: 1, IsRoot: true},
	}
	fuzzFullPush = replicateMsg{Origin: "n1", Incarnation: 9, Version: 2, Groups: fuzzGroups,
		Loose: [][]byte{[]byte("lq")}, TraceID: 7, ParentSpan: 8, Hop: 1}
	fuzzDeltaPush = replicateMsg{Origin: "n1", Incarnation: 9, Version: 3, Base: 2, Groups: fuzzGroups,
		TraceID: 7, ParentSpan: 8, Hop: 1}
	fuzzHeartbeat = replicateMsg{Origin: "n1", Incarnation: 9, Version: 4, Base: 3}
)

// addPrefixes adds every prefix of each message's encoding to the corpus.
func addPrefixes(f *testing.F, msgs ...replicateMsg) {
	for _, m := range msgs {
		enc := m.MarshalWire(nil)
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
	}
}

// checkReplicateScan fails unless scanReplicate accepts exactly the payloads
// replicateMsg.UnmarshalWire accepts, reads the same header, base, group
// count and trace context from them, and returns a group section holding
// exactly the decoded groups.
func checkReplicateScan(t *testing.T, data []byte) {
	h, err := scanReplicate(data)
	var msg replicateMsg
	derr := msg.UnmarshalWire(data)
	if (err != nil) != (derr != nil) {
		t.Fatalf("scanReplicate error %v, UnmarshalWire error %v", err, derr)
	}
	if err != nil {
		return
	}
	got := fmt.Sprintf("%s %d %d %d %d %+v", h.Origin, h.Incarnation, h.Version, h.Base, h.Groups, h.Trace)
	want := fmt.Sprintf("%s %d %d %d %d %+v", msg.Origin, msg.Incarnation, msg.Version, msg.Base, len(msg.Groups),
		spanRef{TraceID: msg.TraceID, Parent: msg.ParentSpan, Hop: msg.Hop})
	if got != want {
		t.Fatalf("scanned %s, decoded %s", got, want)
	}
	var section []replicaGroupRec
	for r := wirecodec.NewReader(h.Section); r.Len() > 0 && r.Err() == nil; {
		var g replicaGroupRec
		if err := g.UnmarshalWire(r.Bytes()); err != nil {
			t.Fatalf("scanned section record: %v", err)
		}
		section = append(section, g)
	}
	if got, want := fmt.Sprintf("%#v", section), fmt.Sprintf("%#v", msg.Groups); got != want {
		t.Fatalf("scanned section holds %s, decoded groups %s", got, want)
	}
}
