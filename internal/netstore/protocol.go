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
package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"piggyback/internal/graph"
)

// Event is the (user id, event id, timestamp) tuple of the prototype; 24
// bytes, exactly as in §4.3.
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

// Protocol v2: every message is a length-prefixed frame carrying a
// protocol version and the sender's plan epoch. The epoch is the hook
// for drain-free schedule rollout (ROADMAP item 2b): servers stamp
// responses with the plan epoch they are serving, so a client can
// observe a rollout propagate without any side channel.
//
//	frame  := len(uint32 LE) version(1) epoch(uint32 LE) payload
//	request payload :=
//	    opUpdate(1) event{user int32, id int64, ts int64} n(uint32) n×view(int32)
//	  | opQuery(1)  k(uint32) n(uint32) n×view(int32)
//	response payload := status(1) rest
//	    status=statusOK:  update → empty, query → count(uint32) count×event
//	    status=statusErr: code(1) message(utf-8, rest of payload)
//
// Typed error frames replace v1's silent connection drops: a malformed
// request gets a statusErr reply (the framing is still intact — a bad
// payload says nothing about the stream position), while frame-level
// corruption still closes the connection, the only safe move once the
// length prefix itself cannot be trusted.
const (
	opUpdate byte = 1
	opQuery  byte = 2
)

// protocolVersion is the wire version this build speaks. A peer frame
// with any other version is rejected with ErrVersionMismatch.
const protocolVersion = 2

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// frameHdr is the fixed frame overhead past the length prefix.
const frameHdr = 1 + 4 // version + epoch

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

// maxFrame bounds a frame to keep a malicious or corrupt peer from
// forcing huge allocations.
const maxFrame = 16 << 20

const eventWire = 4 + 8 + 8 // user + id + ts

// newFrame starts a frame in buf's storage: room for the length, the
// version, room for the epoch. The caller appends the payload (a
// response's status byte first, so no body is copied behind one) and
// seals the result.
func newFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, protocolVersion, 0, 0, 0, 0)
}

// sealFrame stamps a frame begun by newFrame with its length and epoch.
func sealFrame(frame []byte, epoch uint32) error {
	if len(frame)-4-frameHdr > maxFrame {
		return fmt.Errorf("netstore: frame of %d bytes exceeds limit", len(frame)-4-frameHdr)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint32(frame[5:], epoch)
	return nil
}

// readFrame reads one frame into *buf, grown only when the frame does
// not fit, and returns the payload, which aliases *buf until the next
// read into it. The length prefix goes through *buf too: a local array
// handed to an io.Reader escapes, one allocation per frame.
func readFrame(r io.Reader, buf *[]byte) (payload []byte, epoch uint32, err error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	b := (*buf)[:4]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame+frameHdr {
		return nil, 0, fmt.Errorf("netstore: frame of %d bytes exceeds limit", n)
	}
	if n < frameHdr {
		return nil, 0, fmt.Errorf("netstore: frame of %d bytes is shorter than its header", n)
	}
	if cap(b) < int(n) {
		*buf = make([]byte, n)
	}
	b = (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, 0, err
	}
	if b[0] != protocolVersion {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrVersionMismatch, b[0], protocolVersion)
	}
	return b[frameHdr:], binary.LittleEndian.Uint32(b[1:]), nil
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

func appendEvent(b []byte, ev Event) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.User))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.ID))
	return binary.LittleEndian.AppendUint64(b, uint64(ev.TS))
}

func getEvent(b []byte) Event {
	return Event{
		User: graph.NodeID(binary.LittleEndian.Uint32(b[0:])),
		ID:   int64(binary.LittleEndian.Uint64(b[4:])),
		TS:   int64(binary.LittleEndian.Uint64(b[12:])),
	}
}

// encodeUpdate appends an update request body to dst.
func encodeUpdate(dst []byte, ev Event, views []graph.NodeID) []byte {
	dst = append(dst, opUpdate)
	dst = appendEvent(dst, ev)
	return appendViews(dst, views)
}

// encodeQuery appends a query request body to dst.
func encodeQuery(dst []byte, k int, views []graph.NodeID) []byte {
	dst = append(dst, opQuery)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	return appendViews(dst, views)
}

func appendViews(dst []byte, views []graph.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(views)))
	for _, v := range views {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
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
	kind, off := "query", 9
	switch op {
	case opUpdate:
		kind, off = "update", 1+eventWire+4
	case opQuery:
	default:
		return 0, Event{}, 0, nil, unknownOpError(op)
	}
	if len(body) < off {
		return 0, Event{}, 0, nil, fmt.Errorf("netstore: short %s frame", kind)
	}
	if op == opUpdate {
		ev = getEvent(body[1:])
	} else {
		k = int(binary.LittleEndian.Uint32(body[1:]))
	}
	n := int(binary.LittleEndian.Uint32(body[off-4:]))
	if len(body) != off+4*n {
		return 0, Event{}, 0, nil, fmt.Errorf("netstore: %s frame length mismatch", kind)
	}
	if cap(scratch) < n {
		scratch = make([]graph.NodeID, n)
	}
	views = scratch[:n]
	for i := range views {
		views[i] = graph.NodeID(binary.LittleEndian.Uint32(body[off+4*i:]))
	}
	return op, ev, k, views, nil
}

// encodeEvents appends a query response body to dst.
func encodeEvents(dst []byte, events []Event) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for _, ev := range events {
		dst = appendEvent(dst, ev)
	}
	return dst
}

// decodeEvents parses a query response body into scratch's storage.
func decodeEvents(body []byte, scratch []Event) ([]Event, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("netstore: short query response")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) != 4+eventWire*n {
		return nil, fmt.Errorf("netstore: query response length mismatch")
	}
	if cap(scratch) < n {
		scratch = make([]Event, n)
	}
	out := scratch[:n]
	for i := range out {
		out[i] = getEvent(body[4+eventWire*i:])
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
