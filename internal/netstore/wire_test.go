package netstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"

	"piggyback/internal/graph"
)

// frameOf is one sealed frame carrying payload.
func frameOf(epoch uint32, payload []byte) []byte {
	frame := append(newFrame(nil), payload...)
	if err := sealFrame(frame, epoch); err != nil {
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
// minus frameHdr, so every equal-sized frame allocated again.
func TestReadFrameReusesItsBuffer(t *testing.T) {
	one := frameOf(3, encodeQuery(nil, StreamSize, []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}))
	stream := bytes.Repeat(one, 102) // one to size the buffer, AllocsPerRun's warm-up, 100 counted
	r := bytes.NewReader(stream)
	var buf []byte
	read := func() {
		payload, epoch, err := readFrame(r, &buf)
		if err != nil || epoch != 3 || len(payload) != len(one)-4-frameHdr {
			t.Fatalf("readFrame = %d bytes, epoch %d, %v", len(payload), epoch, err)
		}
	}
	read() // the first frame sizes the buffer
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Fatalf("reading an equal-sized frame allocates %.2f times, want 0", avg)
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
// replies it gets, and a few well-formed neighbours.
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
	}
}

// FuzzReadFrame: any byte stream either yields a payload the stream
// really contains or an error, in a buffer no larger than the stream's
// own length prefix asked for (which readFrame holds to maxFrame); a
// frame this package sealed reads back as written, into the same buffer
// when it fits.
func FuzzReadFrame(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(frameOf(5, p), uint32(5))
		f.Add(p, uint32(0))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(0)) // TestServerRejectsGarbage
	f.Add([]byte{9, 0, 0, 0, 1, 0, 0, 0, 0, statusOK, 0, 0, 0}, uint32(0))
	f.Fuzz(func(t *testing.T, stream []byte, epoch uint32) {
		limit := 64
		if len(stream) >= 4 {
			if n := binary.LittleEndian.Uint32(stream); n >= frameHdr && n <= maxFrame+frameHdr {
				limit = max(limit, int(n))
			}
		}
		var buf []byte
		payload, _, err := readFrame(bytes.NewReader(stream), &buf)
		if cap(buf) > limit {
			t.Fatalf("a stream starting %x left a %d-byte buffer", stream[:min(len(stream), 4)], cap(buf))
		}
		if err == nil && !bytes.Equal(payload, stream[4+frameHdr:4+frameHdr+len(payload)]) {
			t.Fatalf("payload %x is not in stream %x", payload, stream)
		}
		limit = max(cap(buf), len(stream)+frameHdr)
		payload, got, err := readFrame(bytes.NewReader(frameOf(epoch, stream)), &buf)
		if err != nil || got != epoch || !bytes.Equal(payload, stream) {
			t.Fatalf("sealed frame read back as %x, epoch %d, %v", payload, got, err)
		}
		if cap(buf) > limit {
			t.Fatalf("buffer grew to %d for a %d-byte payload", cap(buf), len(stream))
		}
	})
}

// FuzzDecodeRequest: no body panics the decoder or makes it allocate
// more view slots than the body has bytes for, and whatever decodes
// encodes back to the same bytes.
func FuzzDecodeRequest(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		op, ev, k, views, err := decodeRequest(body, nil)
		if err != nil {
			if views != nil {
				t.Fatalf("a rejected body returned views %v", views)
			}
			return
		}
		if 4*cap(views) > len(body) {
			t.Fatalf("%d view slots for a %d-byte body", cap(views), len(body))
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

// FuzzDecodeEvents is FuzzDecodeRequest for the query response body.
func FuzzDecodeEvents(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		evs, err := decodeEvents(body, nil)
		if err != nil {
			if evs != nil {
				t.Fatalf("a rejected body returned events %v", evs)
			}
			return
		}
		if eventWire*cap(evs) > len(body) {
			t.Fatalf("%d event slots for a %d-byte body", cap(evs), len(body))
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
