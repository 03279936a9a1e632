package graphio

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"math/rand"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(100, 1))
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(100, 2))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestReadTextComments(t *testing.T) {
	in := "# header\n\n3\n# edge block\n0 1\n1 2\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",              // empty
		"abc\n",         // bad node count
		"3\n0\n",        // bad edge arity
		"3\n0 x\n",      // bad edge number
		"2\n0 5\n",      // out of range
		"1 2\n0 1\n3 4", // first line must be node count (arity error)
		"2147483648\n",  // more nodes than a NodeID addresses
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q parsed without error", in)
		}
	}
	if _, err := ReadText(strings.NewReader("3000000000\n")); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("3e9 nodes: err = %v, want one naming the limit", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty binary input accepted")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A 12-byte header claiming 3 000 000 000 nodes and no edges.
	huge := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(
		binary.LittleEndian.AppendUint32(nil, binaryMagic), 3_000_000_000), 0)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("3e9 nodes: err = %v, want one naming the limit", err)
	}
	// Truncated edge section.
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	var buf bytes.Buffer
	WriteBinary(&buf, g)
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated binary accepted")
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := graph.FromEdges(0, nil)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	buf.Reset()
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err = ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

// Property: both formats round-trip random graphs.
func TestQuickRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := graphgen.ErdosRenyi(n, rng.Intn(5*n), seed)
		var tb, bb bytes.Buffer
		if WriteText(&tb, g) != nil || WriteBinary(&bb, g) != nil {
			return false
		}
		gt, err1 := ReadText(&tb)
		gb, err2 := ReadBinary(&bb)
		if err1 != nil || err2 != nil {
			return false
		}
		if gt.NumEdges() != g.NumEdges() || gb.NumEdges() != g.NumEdges() {
			return false
		}
		ea, eb, ec := g.EdgeList(), gt.EdgeList(), gb.EdgeList()
		for i := range ea {
			if ea[i] != eb[i] || ea[i] != ec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
