package schedio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(200, 1))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost(r) != s.Cost(r) {
		t.Fatalf("cost changed through serialization: %v vs %v", got.Cost(r), s.Cost(r))
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if got.IsPush(id) != s.IsPush(id) || got.IsPull(id) != s.IsPull(id) ||
			got.IsCovered(id) != s.IsCovered(id) || got.Hub(id) != s.Hub(id) {
			t.Fatalf("edge %d differs after round trip", e)
		}
	}
}

func TestWrongGraphRejected(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(100, 1))
	other := graphgen.Social(graphgen.TwitterLike(120, 2))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := read(&buf, other); err == nil {
		t.Fatal("schedule attached to a different graph")
	}
}

func TestCorruptInputRejected(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(60, 3))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{})
	var buf bytes.Buffer
	Write(&buf, s)
	data := buf.Bytes()

	if _, err := read(bytes.NewReader(nil), g); err == nil {
		t.Fatal("empty input accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff // break magic
	if _, err := read(bytes.NewReader(bad), g); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := read(bytes.NewReader(data[:len(data)-2]), g); err == nil {
		t.Fatal("truncated input accepted")
	}
	// Flip a flag byte to an unknown value.
	bad = append([]byte{}, data...)
	bad[12] = 0x80
	if _, err := read(bytes.NewReader(bad), g); err == nil {
		t.Fatal("unknown flags accepted")
	}
}

func TestInvalidScheduleRejected(t *testing.T) {
	// An empty schedule round-trips structurally but fails Theorem 1;
	// Read must reject it.
	g := graphgen.Social(graphgen.TwitterLike(50, 5))
	s := core.NewSchedule(g)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := read(&buf, g); err == nil {
		t.Fatal("invalid (unserved) schedule accepted")
	}
}

// Property: serialization round-trips arbitrary optimized schedules.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		g := graphgen.Social(graphgen.Config{
			Nodes: n, AvgFollows: 4, TriadProb: 0.5, Reciprocity: 0.4, Seed: seed,
		})
		r := workload.LogDegree(g, 0.5+rng.Float64()*10)
		s := nosy.Solve(g, r, nosy.Config{})
		var buf bytes.Buffer
		if Write(&buf, s) != nil {
			return false
		}
		got, err := read(&buf, g)
		if err != nil {
			return false
		}
		return got.Cost(r) == s.Cost(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// read is Write's decoder: it deserializes a schedule for g, verifying
// sizes and Theorem-1 validity. Nothing outside the round-trip tests
// reads schedule files, so it lives here.
func read(r io.Reader, g *graph.Graph) (*core.Schedule, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("schedio: reading header: %w", err)
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("schedio: bad magic %#x", hdr[0])
	}
	if int(hdr[1]) != g.NumNodes() || int(hdr[2]) != g.NumEdges() {
		return nil, fmt.Errorf("schedio: schedule is for a %d-node/%d-edge graph, got %d/%d",
			hdr[1], hdr[2], g.NumNodes(), g.NumEdges())
	}
	s := core.NewSchedule(g)
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		f, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("schedio: reading edge %d: %w", e, err)
		}
		if f&^(flagPush|flagPull|flagCovered) != 0 {
			return nil, fmt.Errorf("schedio: edge %d has unknown flags %#x", e, f)
		}
		if f&flagPush != 0 {
			s.SetPush(id)
		}
		if f&flagPull != 0 {
			s.SetPull(id)
		}
		if f&flagCovered != 0 {
			var hub int32
			if err := binary.Read(br, binary.LittleEndian, &hub); err != nil {
				return nil, fmt.Errorf("schedio: reading hub of edge %d: %w", e, err)
			}
			if hub < 0 || int(hub) >= g.NumNodes() {
				return nil, fmt.Errorf("schedio: edge %d hub %d out of range", e, hub)
			}
			s.SetCovered(id, hub)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedio: loaded schedule invalid: %w", err)
	}
	return s, nil
}
