// Package netstore is the social-networking prototype of §4.3: data-store
// servers owning user views (event lists), and schedule-driven clients
// running Algorithm 3 verbatim — updates write the user's own view plus
// its push set, queries read the user's own view plus its pull set, one
// batched message per server, merging the ten newest events.
//
// One server, one client and one compact binary protocol serve two
// tiers. Over TCP (NewServer, DialConfigured) measured throughput
// includes the network stack. In process (NewCluster) every server
// listens on an in-memory listener whose connections are the two ends
// of a net.Pipe, so the same framing, routing and failure handling run
// without sockets, and faults are injected under either tier by
// wrapping the listener.
//
// # Wire protocol v3
//
// Every message is a frame carrying its length, the protocol version
// and the sender's plan epoch. The epoch is the hook for drain-free
// schedule rollout: servers stamp responses with the plan epoch they are
// serving, so a client can observe a rollout propagate without any side
// channel. Every integer on the wire is a
// varint, and view and event lists are delta-coded, so the small ids
// and steps of a newest-first stream take a byte or two each:
//
//	frame   := len(uvarint) version(1)=3 epoch(uvarint) payload    len counts version, epoch and payload
//	request payload :=
//	    opUpdate(1) event views
//	  | opQuery(1)  k(uvarint) views
//	views   := n(uvarint) n×Δview(varint)                          Δ from the previous id, the first from 0
//	events  := n(uvarint) n×event
//	event   := user(varint) Δid(varint) Δts(varint)                Δ from the previous event mod 2⁶⁴, the first from 0
//	response payload := status(1) rest
//	    status=statusOK:  update → empty, query → events
//	    status=statusErr: code(1) message(utf-8, rest of payload)
//
// A uvarint is encoding/binary's; a varint is its zigzag form, so a
// small negative step is as short as a small positive one. An update's
// event is coded as a one-event list. Every varint must be canonical
// (the shortest encoding of its value, the one encoding/binary writes),
// and a payload must end where its last field does: decoders reject
// overlong encodings and trailing bytes, so whatever decodes encodes
// back to the same bytes. An event takes 3 to 25 bytes on the wire, a
// view 1 to 5.
//
// Typed error frames replace v1's silent connection drops: a malformed
// request gets a statusErr reply (the framing is still intact — a bad
// payload says nothing about the stream position), while frame-level
// corruption still closes the connection, the only safe move once the
// length prefix itself cannot be trusted. A v2 peer's frame (a 4-byte
// little-endian length, then version 2) of under 128 bytes reads as
// version 0 and gets ErrVersionMismatch; a longer one fails the version
// check, the length prefix or the payload decode.
package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"piggyback/internal/graph"
)

// Event is the (user id, event id, timestamp) tuple of the prototype: 24
// bytes in memory, exactly as in §4.3. On the wire an event takes 3–25
// bytes, its id and timestamp coded as steps from the event before it.
type Event struct {
	User graph.NodeID
	ID   int64
	TS   int64
}

// StreamSize is the number of latest events a query returns (the
// prototype returns "the 10 latest events across all friends").
const StreamSize = 10

// ViewCap bounds the events retained per view; the server trims views
// that grow beyond it (the paper's thin memcached layer does the same).
const ViewCap = 64

// The request ops of the wire protocol (the package comment has its
// grammar).
const (
	opUpdate byte = 1
	opQuery  byte = 2
)

// protocolVersion is the wire version this build speaks. A peer frame
// with any other version is rejected with ErrVersionMismatch.
const protocolVersion = 3

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// ErrVersionMismatch is returned when a peer speaks a different
// protocol version; the connection must be dropped.
var ErrVersionMismatch = errors.New("netstore: protocol version mismatch")

// ErrCode classifies a typed error frame.
type ErrCode byte

const (
	// ErrCodeMalformed means the request payload failed to decode.
	ErrCodeMalformed ErrCode = 1
	// ErrCodeUnknownOp means the request op byte is not recognized.
	ErrCodeUnknownOp ErrCode = 2
	// ErrCodeInternal means the server failed while serving a
	// well-formed request.
	ErrCodeInternal ErrCode = 3
)

// String names the code for logs.
func (c ErrCode) String() string {
	switch c {
	case ErrCodeMalformed:
		return "malformed"
	case ErrCodeUnknownOp:
		return "unknown-op"
	case ErrCodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code-%d", byte(c))
}

// ServerError is a typed error frame from the server: the request was
// received and rejected deterministically. The stream stays usable, and
// retrying the identical request is pointless.
type ServerError struct {
	Code ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("netstore: server error (%s): %s", e.Code, e.Msg)
}

// maxFrame bounds a frame's payload to keep a malicious or corrupt peer
// from forcing huge allocations.
const maxFrame = 16 << 20

// frameRoom is the header room newFrame reserves: the longest length
// prefix, the version and the longest epoch. maxFrameLen is the largest
// length a prefix may carry.
const (
	frameRoom   = binary.MaxVarintLen32 + 1 + binary.MaxVarintLen32
	maxFrameLen = maxFrame + 1 + binary.MaxVarintLen32
)

// eventMin is the fewest bytes an event takes on the wire (one per
// varint); a decoder sizes nothing past what the payload could hold.
const eventMin = 3

// newFrame starts a frame in buf's storage: room for the header. The
// caller appends the payload (a response's status byte first, so no
// body is copied behind one) and seals the result.
func newFrame(buf []byte) []byte {
	var room [frameRoom]byte
	return append(buf[:0], room[:]...)
}

// sealFrame writes the header of a frame begun by newFrame flush against
// its payload and returns the frame from its first byte, which lies
// inside the room newFrame left.
func sealFrame(frame []byte, epoch uint32) ([]byte, error) {
	payload := len(frame) - frameRoom
	if payload > maxFrame {
		return nil, fmt.Errorf("netstore: frame of %d bytes exceeds limit", payload)
	}
	n := 1 + uvarintLen(uint64(epoch)) + payload
	start := frameRoom + payload - n - uvarintLen(uint64(n))
	h := binary.AppendUvarint(frame[start:start], uint64(n))
	h = append(h, protocolVersion)
	binary.AppendUvarint(h, uint64(epoch))
	return frame[start:], nil
}

// uvarintLen is the length of x's uvarint.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// frameReader is what readFrame reads from: the length prefix a byte at
// a time, the rest of the frame in one piece.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame reads one frame into *buf, grown only when the frame does
// not fit, and returns the payload, which aliases *buf until the next
// read into it.
func readFrame(r frameReader, buf *[]byte) (payload []byte, epoch uint32, err error) {
	n, err := readLength(r)
	if err != nil {
		return nil, 0, err
	}
	if cap(*buf) < n {
		*buf = make([]byte, max(n, 64))
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, 0, err
	}
	if b[0] != protocolVersion {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrVersionMismatch, b[0], protocolVersion)
	}
	w := wire{b: b, off: 1}
	if e := w.uvarint(); !w.bad && e <= math.MaxUint32 {
		return b[w.off:], uint32(e), nil
	}
	return nil, 0, fmt.Errorf("netstore: frame with a malformed epoch")
}

// readLength reads a frame's length prefix: a canonical uvarint of at
// least the version and an epoch and at most maxFrameLen. It stops at
// the first byte that makes the prefix too long, so garbage is not read
// on.
func readLength(r io.ByteReader) (int, error) {
	var n uint64
	for shift := 0; ; shift += 7 {
		c, err := r.ReadByte()
		if err != nil {
			if shift > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			switch {
			case shift > 0 && c == 0:
				return 0, fmt.Errorf("netstore: overlong frame length prefix")
			case n > maxFrameLen:
				return 0, fmt.Errorf("netstore: frame of %d bytes exceeds limit", n)
			case n < 2:
				return 0, fmt.Errorf("netstore: frame of %d bytes is shorter than its header", n)
			}
			return int(n), nil
		}
		if 1<<(shift+7) > maxFrameLen {
			return 0, fmt.Errorf("netstore: frame length prefix exceeds limit")
		}
	}
}

// errResponse builds a statusErr response payload.
func errResponse(code ErrCode, msg string) []byte {
	out := make([]byte, 2+len(msg))
	out[0] = statusErr
	out[1] = byte(code)
	copy(out[2:], msg)
	return out
}

// decodeResponse splits a response payload into its body, or a
// *ServerError for typed error frames.
func decodeResponse(payload []byte) ([]byte, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("netstore: empty response")
	}
	switch payload[0] {
	case statusOK:
		return payload[1:], nil
	case statusErr:
		if len(payload) < 2 {
			return nil, fmt.Errorf("netstore: truncated error frame")
		}
		return nil, &ServerError{Code: ErrCode(payload[1]), Msg: string(payload[2:])}
	default:
		return nil, fmt.Errorf("netstore: unknown response status %d", payload[0])
	}
}

// wire is a payload being decoded: each read takes one canonical varint
// at off and moves off past it. The first read that fails sets bad and
// moves off to the end, so every later read fails too and returns 0.
type wire struct {
	b   []byte
	off int
	bad bool
}

func (w *wire) fail() {
	w.off, w.bad = len(w.b), true
}

// done reports whether every read so far succeeded and the payload ends
// where the last one did.
func (w *wire) done() bool {
	return !w.bad && w.off == len(w.b)
}

// uvarint reads a canonical uvarint: at most 64 bits, and no last byte
// of 0 after the first. It is one small loop, so it inlines into its
// callers and a one-byte step costs no call.
func (w *wire) uvarint() (x uint64) {
	for s := uint(0); s < 64 && w.off < len(w.b); s += 7 {
		c := uint64(w.b[w.off])
		w.off++
		x |= c & 0x7f << s
		if c < 0x80 {
			if c == 0 && s > 0 || s == 63 && c > 1 {
				break
			}
			return x
		}
	}
	w.fail()
	return 0
}

// unzigzag undoes binary.AppendVarint's zigzag coding of a signed step.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// node reads a node id coded as a step from prev.
func (w *wire) node(prev graph.NodeID) graph.NodeID {
	v := int64(prev) + unzigzag(w.uvarint())
	if v != int64(graph.NodeID(v)) {
		w.fail()
		return 0
	}
	return graph.NodeID(v)
}

// event reads an event coded against prev.
func (w *wire) event(prev Event) Event {
	user := w.node(0)
	id := prev.ID + unzigzag(w.uvarint())
	return Event{User: user, ID: id, TS: prev.TS + unzigzag(w.uvarint())}
}

// count reads a list length and holds it to what the rest of the
// payload could hold at size bytes per element.
func (w *wire) count(size int) int {
	n := w.uvarint()
	if n > uint64((len(w.b)-w.off)/size) {
		w.fail()
		return 0
	}
	return int(n)
}

// appendEvent appends ev coded against prev, the event before it in its
// list.
func appendEvent(b []byte, ev, prev Event) []byte {
	b = binary.AppendVarint(b, int64(ev.User))
	b = binary.AppendVarint(b, ev.ID-prev.ID)
	return binary.AppendVarint(b, ev.TS-prev.TS)
}

// encodeUpdate appends an update request body to dst.
func encodeUpdate(dst []byte, ev Event, views []graph.NodeID) []byte {
	dst = append(dst, opUpdate)
	dst = appendEvent(dst, ev, Event{})
	return appendViews(dst, views)
}

// encodeQuery appends a query request body to dst.
func encodeQuery(dst []byte, k int, views []graph.NodeID) []byte {
	dst = append(dst, opQuery)
	dst = binary.AppendUvarint(dst, uint64(uint32(k)))
	return appendViews(dst, views)
}

func appendViews(dst []byte, views []graph.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(views)))
	prev := int64(0)
	for _, v := range views {
		dst = binary.AppendVarint(dst, int64(v)-prev)
		prev = int64(v)
	}
	return dst
}

// decodeRequest parses a request body; views is decoded into scratch's
// storage, or a new slice of exactly its length when it does not fit.
func decodeRequest(body []byte, scratch []graph.NodeID) (op byte, ev Event, k int, views []graph.NodeID, err error) {
	if len(body) < 1 {
		return 0, Event{}, 0, nil, fmt.Errorf("netstore: empty request")
	}
	op = body[0]
	w := wire{b: body, off: 1}
	kind := "query"
	switch op {
	case opUpdate:
		kind, ev = "update", w.event(Event{})
	case opQuery:
		if u := w.uvarint(); u <= math.MaxUint32 {
			k = int(u)
		} else {
			w.fail()
		}
	default:
		return 0, Event{}, 0, nil, unknownOpError(op)
	}
	n := w.count(1)
	if !w.bad {
		if cap(scratch) < n {
			scratch = make([]graph.NodeID, n)
		}
		views = scratch[:n]
		prev := graph.NodeID(0)
		for i := range views {
			prev = w.node(prev)
			views[i] = prev
		}
	}
	if !w.done() {
		return 0, Event{}, 0, views, fmt.Errorf("netstore: malformed %s frame", kind)
	}
	return op, ev, k, views, nil
}

// encodeEvents appends a query response body to dst.
func encodeEvents(dst []byte, events []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	prev := Event{}
	for _, ev := range events {
		dst = appendEvent(dst, ev, prev)
		prev = ev
	}
	return dst
}

// decodeEvents parses a query response body into scratch's storage, or
// a new slice of exactly its length when it does not fit.
func decodeEvents(body []byte, scratch []Event) ([]Event, error) {
	w := wire{b: body}
	n := w.count(eventMin)
	if w.bad {
		return nil, fmt.Errorf("netstore: malformed query response")
	}
	if cap(scratch) < n {
		scratch = make([]Event, n)
	}
	out := scratch[:n]
	prev := Event{}
	for i := range out {
		prev = w.event(prev)
		out[i] = prev
	}
	if !w.done() {
		return out, fmt.Errorf("netstore: malformed query response")
	}
	return out, nil
}

// mergeNewest appends to dst the k newest events of the newest-first
// cursors, consuming them. Equal timestamps go to the earlier cursor, so
// the result is the left fold of a two-list merge over the cursors.
func mergeNewest(dst []Event, curs [][]Event, k int) []Event {
	for len(dst) < k {
		best := -1
		for i, c := range curs {
			if len(c) > 0 && (best < 0 || c[0].TS > curs[best][0].TS) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, curs[best][0])
		curs[best] = curs[best][1:]
	}
	return dst
}
