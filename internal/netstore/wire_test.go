package netstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"

	"piggyback/internal/graph"
)

// frameOf is one sealed frame carrying payload.
func frameOf(epoch uint32, payload []byte) []byte {
	frame, err := sealFrame(append(newFrame(nil), payload...), epoch)
	if err != nil {
		panic(err)
	}
	return frame
}

// writeFrame sends one frame the way a peer with no buffers of its own
// would.
func writeFrame(w io.Writer, epoch uint32, payload []byte) error {
	_, err := w.Write(frameOf(epoch, payload))
	return err
}

// A connection's read buffer must be reused as a whole: the parent kept
// the payload's slice (buf = payload[:0]), whose capacity is the frame's
// minus its header, so every equal-sized frame allocated again.
func TestReadFrameReusesItsBuffer(t *testing.T) {
	query := encodeQuery(nil, StreamSize, []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
	stream := bytes.Repeat(frameOf(3, query), 102) // one to size the buffer, AllocsPerRun's warm-up, 100 counted
	r := bytes.NewReader(stream)
	var buf []byte
	read := func() {
		payload, epoch, err := readFrame(r, &buf)
		if err != nil || epoch != 3 || !bytes.Equal(payload, query) {
			t.Fatalf("readFrame = %x, epoch %d, %v", payload, epoch, err)
		}
	}
	read() // the first frame sizes the buffer
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Fatalf("reading an equal-sized frame allocates %.2f times, want 0", avg)
	}
}

// TestWireSizes pins the v3 coding's length on the messages a served
// request is made of (v2 took 204, 57 and 9 bytes for the three).
func TestWireSizes(t *testing.T) {
	// A newest-first reply: users below 8192 take two bytes each (zigzag),
	// the first event's id and timestamp two each, every later one's
	// steps of -1 a byte each.
	reply := make([]Event, StreamSize)
	for i := range reply {
		reply[i] = Event{User: graph.NodeID(8191 - 811*i), ID: 5000 - int64(i), TS: 8000 - int64(i)}
	}
	if got, want := len(encodeEvents(nil, reply)), 1+(2+2+2)+(StreamSize-1)*(2+1+1); got != want {
		t.Fatalf("a %d-event reply takes %d bytes, want %d", StreamSize, got, want)
	}
	// An update: op, the event as above, the count, and eight ascending
	// views whose steps are all below 64.
	update := encodeUpdate(nil, Event{User: 300, ID: 5000, TS: 8000},
		[]graph.NodeID{3, 17, 40, 41, 50, 60, 61, 63})
	if got, want := len(update), 1+(2+2+2)+1+8; got != want {
		t.Fatalf("an update naming 8 views takes %d bytes, want %d", got, want)
	}
	// A frame header: the length and the epoch below 128 take a byte
	// each, with the version between them.
	for _, epoch := range []uint32{0, 127} {
		if got := len(frameOf(epoch, update)) - len(update); got != 3 {
			t.Fatalf("a frame header at epoch %d takes %d bytes, want 3", epoch, got)
		}
	}
}

// mergeTwo combines two newest-first event lists into the k newest: the
// two-list filter step of Algorithm 3 that mergeNewest replaced, kept as
// its reference.
func mergeTwo(a, b []Event, k int) []Event {
	out := make([]Event, 0, k)
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case a[i].TS >= b[j].TS:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// The merge both ends use must be the left fold of mergeTwo, ties
// included.
func TestMergeNewestMatchesFold(t *testing.T) {
	lists := [][]Event{
		{{User: 0, ID: 1, TS: 9}, {User: 0, ID: 2, TS: 5}, {User: 0, ID: 3, TS: 5}},
		nil,
		{{User: 2, ID: 1, TS: 9}, {User: 2, ID: 2, TS: 7}, {User: 2, ID: 3, TS: 1}},
		{{User: 3, ID: 1, TS: 5}},
	}
	for k := 1; k <= 8; k++ {
		var want []Event
		curs := make([][]Event, len(lists))
		for i, l := range lists {
			want = mergeTwo(want, l, k)
			curs[i] = l
		}
		if got := mergeNewest(nil, curs, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merge = %v, fold = %v", k, got, want)
		}
	}
}

// Server.query over more views than one merge round takes must still be
// the fold, and must not grow its scratch with the number of views.
func TestServerQueryFoldsAcrossRounds(t *testing.T) {
	views := make(map[graph.NodeID][]Event)
	var ask []graph.NodeID
	for v := 0; v < 3*mergeFanIn+5; v++ {
		id := graph.NodeID(v)
		for j := 0; j < 4; j++ {
			views[id] = append(views[id], Event{User: id, ID: int64(j), TS: int64((v*7+3-j)%50 + 50*(3-j))})
		}
		ask = append(ask, id, id) // a view may be named twice
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(ln, ServerConfig{Views: views})
	defer srv.Close()
	var want []Event
	for _, v := range ask {
		want = mergeTwo(want, views[v], StreamSize)
	}
	var c connScratch
	if got := srv.query(&c, ask, StreamSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("query = %v, fold = %v", got, want)
	}
	if max := (mergeFanIn + 1) * StreamSize; len(c.heads) > max {
		t.Fatalf("scratch holds %d events for %d views, want ≤ %d", len(c.heads), len(ask), max)
	}
}

// fuzzSeeds are the payloads TestMalformedFrameGetsTypedError sends, the
// replies it gets, a few well-formed neighbours, and the edges of the
// varint coding: an overlong varint, an event at the int64 extremes
// (steps that wrap), a decreasing view list (negative steps), a trailing
// byte, and a view stepped past the int32 range.
func fuzzSeeds() [][]byte {
	ev := Event{User: 7, ID: 3, TS: 9}
	return [][]byte{
		{99},
		{opUpdate, 1, 2},
		encodeUpdate(nil, ev, []graph.NodeID{7}),
		encodeQuery(nil, StreamSize, []graph.NodeID{7}),
		encodeQuery(nil, 0, nil),
		encodeEvents(nil, []Event{ev, {User: -1, ID: -7, TS: 1 << 40}}),
		encodeEvents(nil, nil),
		errResponse(ErrCodeUnknownOp, "netstore: unknown op 99"),
		{},
		{opQuery, 0x8a, 0x00, 0}, // k = 10 in two bytes
		encodeEvents(nil, []Event{
			{User: math.MaxInt32, ID: math.MaxInt64, TS: math.MinInt64},
			{User: math.MinInt32, ID: math.MinInt64, TS: math.MaxInt64},
		}),
		encodeQuery(nil, StreamSize, []graph.NodeID{math.MaxInt32, 40, 7, 0, math.MinInt32}),
		append(encodeQuery(nil, StreamSize, []graph.NodeID{7}), 0),
		append(encodeQuery(nil, StreamSize, []graph.NodeID{math.MaxInt32})[:2], 2, 0xfe, 0xff, 0xff, 0xff, 0x0f, 2),
		{2, 0, 0}, // two events declared, room for two bytes of them
	}
}

// FuzzReadFrame: any byte stream either yields a frame that seals back
// to the stream's own first bytes (the header canonical, the payload
// what the stream holds) or an error, in a buffer no larger than the
// stream's own uvarint length prefix asked for (which readFrame holds to
// maxFrameLen); a frame this package sealed reads back as written, into
// the same buffer when it fits.
func FuzzReadFrame(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(frameOf(5, p), uint32(5))
		f.Add(p, uint32(0))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(0))                       // TestServerRejectsGarbage
	f.Add([]byte{9, 0, 0, 0, 2, 0, 0, 0, 0, statusOK, 0, 0, 0}, uint32(0)) // a v2 frame
	f.Add([]byte{0x83, 0x00, protocolVersion, 0, statusOK}, uint32(0))     // an overlong length prefix
	f.Add([]byte{3, protocolVersion, 0x80, 0x00, statusOK}, uint32(0))     // an overlong epoch
	f.Fuzz(func(t *testing.T, stream []byte, epoch uint32) {
		limit := 64
		n, m := binary.Uvarint(stream)
		if m > 0 && n <= maxFrameLen {
			limit = max(limit, int(n))
		}
		var buf []byte
		payload, got, err := readFrame(bytes.NewReader(stream), &buf)
		if cap(buf) > limit {
			t.Fatalf("a stream starting %x left a %d-byte buffer", stream[:min(len(stream), binary.MaxVarintLen32)], cap(buf))
		}
		if err == nil && !bytes.Equal(frameOf(got, payload), stream[:m+int(n)]) {
			t.Fatalf("frame %x read from stream %x seals back as %x", payload, stream, frameOf(got, payload))
		}
		limit = max(64, cap(buf), 1+binary.MaxVarintLen32+len(stream))
		payload, got, err = readFrame(bytes.NewReader(frameOf(epoch, stream)), &buf)
		if err != nil || got != epoch || !bytes.Equal(payload, stream) {
			t.Fatalf("sealed frame read back as %x, epoch %d, %v", payload, got, err)
		}
		if cap(buf) > limit {
			t.Fatalf("buffer grew to %d for a %d-byte payload", cap(buf), len(stream))
		}
	})
}

// FuzzDecodeRequest: no body panics the decoder or makes it allocate
// more view slots than the body has bytes for (a view takes one at the
// least), rejected or not, and whatever decodes encodes back to the same
// bytes, so the decoder takes canonical varints only.
func FuzzDecodeRequest(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		op, ev, k, views, err := decodeRequest(body, nil)
		if cap(views) > len(body) {
			t.Fatalf("%d view slots for a %d-byte body (err %v)", cap(views), len(body), err)
		}
		if err != nil {
			return
		}
		var again []byte
		switch op {
		case opUpdate:
			again = encodeUpdate(nil, ev, views)
		case opQuery:
			if k != int(uint32(k)) {
				t.Fatalf("k = %d does not fit the wire", k)
			}
			again = encodeQuery(nil, k, views)
		default:
			t.Fatalf("decoded op %d", op)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("decode∘encode: %x became %x", body, again)
		}
		// Into scratch that fits, nothing is allocated and nothing changes.
		scratch := make([]graph.NodeID, len(views)+1)
		_, _, _, views2, _ := decodeRequest(body, scratch)
		if !slices.Equal(views2, views) || (len(views2) > 0 && &views2[0] != &scratch[0]) {
			t.Fatalf("scratch decode = %v, fresh decode = %v", views2, views)
		}
	})
}

// FuzzDecodeEvents is FuzzDecodeRequest for the query response body,
// whose events take eventMin bytes at the least.
func FuzzDecodeEvents(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		evs, err := decodeEvents(body, nil)
		if eventMin*cap(evs) > len(body) {
			t.Fatalf("%d event slots for a %d-byte body (err %v)", cap(evs), len(body), err)
		}
		if err != nil {
			return
		}
		if again := encodeEvents(nil, evs); !bytes.Equal(again, body) {
			t.Fatalf("decode∘encode: %x became %x", body, again)
		}
		scratch := make([]Event, len(evs)+1)
		evs2, _ := decodeEvents(body, scratch)
		if !slices.Equal(evs2, evs) || (len(evs2) > 0 && &evs2[0] != &scratch[0]) {
			t.Fatalf("scratch decode = %v, fresh decode = %v", evs2, evs)
		}
	})
}
