package graphgen

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"piggyback/internal/graph"
)

func TestSocialDeterministic(t *testing.T) {
	a := Social(TwitterLike(500, 42))
	b := Social(TwitterLike(500, 42))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := Social(TwitterLike(500, 43))
	if c.NumEdges() == a.NumEdges() {
		// Different seeds could coincide in count, but the edge lists
		// should differ somewhere.
		ec := c.EdgeList()
		same := true
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestSocialDensity(t *testing.T) {
	cfg := TwitterLike(2000, 1)
	g := Social(cfg)
	avg := float64(g.NumEdges()) / float64(g.NumNodes())
	// Reciprocity adds edges beyond AvgFollows; accept a broad band.
	if avg < float64(cfg.AvgFollows)*0.7 || avg > float64(cfg.AvgFollows)*2.0 {
		t.Fatalf("avg degree = %.1f, want near %d", avg, cfg.AvgFollows)
	}
}

func TestSocialHasClusteringAndSkew(t *testing.T) {
	g := Social(TwitterLike(3000, 7))
	rng := rand.New(rand.NewSource(1))
	cc := g.ClusteringCoefficient(300, rng)
	if cc < 0.05 {
		t.Fatalf("clustering coefficient = %.3f; social generator should cluster", cc)
	}
	// Degree skew: max follower count far above average.
	s := g.ComputeStats(100, rng)
	if float64(s.MaxOutDegree) < 5*s.AvgOutDegree {
		t.Fatalf("max out-degree %d not skewed vs avg %.1f", s.MaxOutDegree, s.AvgOutDegree)
	}
	// ER null model should cluster much less at the same density.
	er := ErdosRenyi(3000, g.NumEdges(), 7)
	ccER := er.ClusteringCoefficient(300, rng)
	if cc < 2*ccER {
		t.Fatalf("social clustering %.3f not clearly above ER %.3f", cc, ccER)
	}
}

func TestPresetsDiffer(t *testing.T) {
	tw := Social(TwitterLike(2000, 3))
	fl := Social(FlickrLike(2000, 3))
	if rt, rf := tw.Reciprocity(), fl.Reciprocity(); rf <= rt {
		t.Fatalf("flickr-like reciprocity %.2f should exceed twitter-like %.2f", rf, rt)
	}
}

func TestSocialTinyGraphs(t *testing.T) {
	for n := 0; n <= 4; n++ {
		g := Social(Config{Nodes: n, AvgFollows: 3, Seed: 1})
		if g.NumNodes() != n {
			t.Fatalf("n=%d: NumNodes=%d", n, g.NumNodes())
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 9)
	if g.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() < 400 || g.NumEdges() > 500 {
		t.Fatalf("NumEdges = %d, want ~500 (minus collisions)", g.NumEdges())
	}
}

func TestZipfConfiguration(t *testing.T) {
	g := ZipfConfiguration(500, 1.5, 100, 11)
	if g.NumNodes() != 500 || g.NumEdges() == 0 {
		t.Fatalf("unexpected graph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	var maxd int
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(graph.NodeID(u)); d > maxd {
			maxd = d
		}
	}
	if maxd < 5 {
		t.Fatalf("zipf generator produced no skew (max out-degree %d)", maxd)
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		k := jitter(rng, 10)
		if k < 5 || k > 15 {
			t.Fatalf("jitter(10) = %d out of [5,15]", k)
		}
	}
	if jitter(rng, 1) != 1 || jitter(rng, 0) != 1 {
		t.Fatal("jitter should floor at 1")
	}
}

func TestStreamSocialDeterministic(t *testing.T) {
	a := StreamSocial(FlickrLike(800, 7))
	b := StreamSocial(FlickrLike(800, 7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := StreamSocial(FlickrLike(800, 8))
	if c.NumEdges() == a.NumEdges() {
		ec := c.EdgeList()
		same := true
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

// The streaming generator must keep the properties the paper's results
// rest on: degree skew, clustering, reciprocity near the preset's knob.
func TestStreamSocialShape(t *testing.T) {
	g := StreamSocial(FlickrLike(3000, 11))
	rng := rand.New(rand.NewSource(1))
	s := g.ComputeStats(300, rng)
	if float64(s.MaxOutDegree) < 5*s.AvgOutDegree {
		t.Fatalf("max out-degree %d not skewed vs avg %.1f", s.MaxOutDegree, s.AvgOutDegree)
	}
	if s.ClusteringCoef < 0.05 {
		t.Fatalf("clustering %.3f too low", s.ClusteringCoef)
	}
	if s.Reciprocity < 0.3 {
		t.Fatalf("reciprocity %.3f too low for the Flickr preset", s.Reciprocity)
	}
}

func TestStreamSocialTinyGraphs(t *testing.T) {
	for n := 0; n <= 5; n++ {
		g := StreamSocial(Config{Nodes: n, AvgFollows: 3, Seed: 1})
		if g.NumNodes() != n {
			t.Fatalf("nodes = %d, want %d", g.NumNodes(), n)
		}
	}
}

func TestFlickrLikeEdgesHitsTarget(t *testing.T) {
	const target = 120000
	cfg := FlickrLikeEdges(target, 3)
	g := StreamSocial(cfg)
	m := g.NumEdges()
	if m < target*7/10 || m > target*13/10 {
		t.Fatalf("generated %d edges for target %d (outside ±30%%)", m, target)
	}
}

// edgeDigest is the FNV-64a hash of g's edge list in id order, each edge
// as two little-endian int32s: equal digests mean byte-identical graphs.
func edgeDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range g.EdgeList() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.From))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.To))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// The generators' graphs at the benchmark's geometries are pinned byte
// for byte, so a change to how a graph is built (not just to what a
// solver makes of it) shows here first.
func TestGeneratorDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		gen   func() *graph.Graph
		edges int
		want  uint64
	}{
		{"StreamSocial/5000", func() *graph.Graph { return StreamSocial(FlickrLikeEdges(5000, 7)) }, 3235, 0x44e5e9914fbfe045},
		{"StreamSocial/60000", func() *graph.Graph { return StreamSocial(FlickrLikeEdges(60000, 7)) }, 54770, 0xc336f8ee46aad452},
		{"StreamSocial/120000", func() *graph.Graph { return StreamSocial(FlickrLikeEdges(120000, 7)) }, 112885, 0xa23aa46bf3e7b39f},
		{"Social/50", func() *graph.Graph { return Social(FlickrLike(50, 7)) }, 1151, 0xeeaa08562db04cfe},
		{"Social/200", func() *graph.Graph { return Social(FlickrLike(200, 7)) }, 6857, 0x7c5967bc3f59f0ce},
		{"Social/500", func() *graph.Graph { return Social(FlickrLike(500, 7)) }, 19171, 0x658c14f5df26dbb7},
	} {
		g := c.gen()
		if got := edgeDigest(g); g.NumEdges() != c.edges || got != c.want {
			t.Errorf("%s: %d edges, digest %#x; pinned %d edges, %#x", c.name, g.NumEdges(), got, c.edges, c.want)
		}
	}
}
