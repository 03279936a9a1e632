// Package graphgen generates synthetic directed social graphs.
//
// The paper evaluates on proprietary crawls of Flickr (2.4M nodes, 71M
// edges, high reciprocity) and Twitter (83M nodes, 1.4B edges, low
// reciprocity). Those datasets are not redistributable, so this package is
// the substitution mandated by the reproduction: a preferential-attachment
// process with triadic closure that reproduces the two properties the
// paper's results depend on — power-law degree skew (hubs exist) and a
// high clustering coefficient (hubs have co-subscribed neighborhoods worth
// piggybacking through) — plus tunable reciprocity to differentiate the
// Flickr-like and Twitter-like presets.
//
// All generators are deterministic given the seed.
package graphgen

import (
	"math/rand"

	"piggyback/internal/graph"
)

// Config parameterizes the social-graph generator.
type Config struct {
	Nodes       int     // number of users
	AvgFollows  int     // average number of accounts a user follows
	TriadProb   float64 // probability a new follow closes a triangle
	Reciprocity float64 // probability a follow is reciprocated
	Seed        int64
}

// TwitterLike returns a preset mimicking the Twitter crawl shape: denser,
// low reciprocity (≈0.2), strong degree skew. n is the node count; the
// paper's graph has average degree ≈ 17.
func TwitterLike(n int, seed int64) Config {
	return Config{Nodes: n, AvgFollows: 17, TriadProb: 0.55, Reciprocity: 0.22, Seed: seed}
}

// FlickrLike returns a preset mimicking the Flickr crawl shape: sparser
// node-wise but higher average degree (≈ 29) and high reciprocity (≈0.6).
func FlickrLike(n int, seed int64) Config {
	return Config{Nodes: n, AvgFollows: 29, TriadProb: 0.45, Reciprocity: 0.62, Seed: seed}
}

// Social generates a directed social graph per cfg.
//
// Process: nodes arrive one at a time. Node v issues AvgFollows follow
// requests (binomially jittered). The first target is picked by
// preferential attachment on current follower counts (so early nodes
// become celebrities, giving the power-law in follower count); each
// subsequent target closes a triangle with probability TriadProb by
// following a followee of the previous target (this is what produces the
// high clustering coefficient). "v follows u" creates the edge u → v
// (v subscribes to u); with probability Reciprocity the reverse edge
// v → u is added too.
func Social(cfg Config) *graph.Graph {
	if cfg.Nodes < 2 {
		return graph.FromEdges(max(cfg.Nodes, 0), nil)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes
	b := graph.NewBuilder(n)

	// followers[u] = users following u; also the preferential-attachment
	// ballot box: each follow of u adds one ticket for u.
	followees := make([][]graph.NodeID, n) // followees[v] = accounts v follows
	tickets := make([]graph.NodeID, 0, n*cfg.AvgFollows)

	follow := func(v, u graph.NodeID) {
		if v == u {
			return
		}
		b.AddEdge(u, v) // u → v : v subscribes to u
		followees[v] = append(followees[v], u)
		tickets = append(tickets, u)
		if rng.Float64() < cfg.Reciprocity {
			b.AddEdge(v, u)
			followees[u] = append(followees[u], v)
			tickets = append(tickets, v)
		}
	}

	// Seed clique so preferential attachment has tickets to draw.
	seedSize := min(4, n)
	for i := 0; i < seedSize; i++ {
		for j := 0; j < seedSize; j++ {
			if i != j {
				follow(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}

	for v := seedSize; v < n; v++ {
		k := jitter(rng, cfg.AvgFollows)
		var prev graph.NodeID = -1
		for f := 0; f < k; f++ {
			var target graph.NodeID = -1
			if prev >= 0 && cfg.TriadProb > 0 && rng.Float64() < cfg.TriadProb {
				// Triadic closure: follow someone prev follows.
				if cand := followees[prev]; len(cand) > 0 {
					target = cand[rng.Intn(len(cand))]
				}
			}
			if target < 0 {
				target = tickets[rng.Intn(len(tickets))]
			}
			if target == graph.NodeID(v) {
				continue
			}
			follow(graph.NodeID(v), target)
			prev = target
		}
	}
	return b.Build()
}

// FlickrLikeEdges returns the Flickr-like preset sized so the generated
// graph has approximately m edges — the entry point for the million-edge
// benchmarks (≈47 edges arrive per node: AvgFollows follows plus
// reciprocations). Pair it with StreamSocial; at these sizes the
// edge-list generator's intermediates are the dominant allocation.
func FlickrLikeEdges(m int, seed int64) Config {
	cfg := FlickrLike(2, seed)
	perNode := float64(cfg.AvgFollows) * (1 + cfg.Reciprocity)
	n := int(float64(m) / perNode)
	if n < 2 {
		n = 2
	}
	cfg.Nodes = n
	return cfg
}

// StreamSocial generates the same style of graph as Social with O(n)
// generator state, built for million-edge scale. Two substitutions keep
// the state small without changing the graph's character:
//
//   - Preferential attachment draws from a Fenwick tree over per-node
//     ticket counts (O(log n) per draw) instead of an O(m) ticket array.
//   - Triadic closure samples from a fixed-size reservoir of each node's
//     followees instead of full followee lists.
//
// The generator runs once, straight into a graph.Builder; while it runs
// the builder's edge list (8 B/edge) is the only O(m) state.
//
// Deterministic given cfg.Seed, like every generator here. The schedule
// of RNG draws differs from Social's, so StreamSocial(cfg) and
// Social(cfg) are distinct (same-shaped) graphs.
func StreamSocial(cfg Config) *graph.Graph {
	n := cfg.Nodes
	if n < 2 {
		return graph.FromEdges(max(n, 0), nil)
	}
	b := graph.NewBuilder(n)
	streamSocialPass(cfg, b.AddEdge)
	return b.Build()
}

// reservoirSize bounds the per-node followee sample kept for triadic
// closure in StreamSocial.
const reservoirSize = 8

// streamSocialPass runs one full deterministic generation pass, emitting
// every edge u → v exactly once.
func streamSocialPass(cfg Config, emit func(u, v graph.NodeID)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes
	fen := newFenwick(n)
	// Flat per-node reservoirs: res[v*reservoirSize : ...] holds up to
	// resLen[v] followees of v; resSeen[v] counts all followees ever seen,
	// driving standard reservoir sampling.
	res := make([]graph.NodeID, n*reservoirSize)
	resLen := make([]uint8, n)
	resSeen := make([]int32, n)
	sawFollowee := func(v, u graph.NodeID) {
		resSeen[v]++
		if int(resLen[v]) < reservoirSize {
			res[int(v)*reservoirSize+int(resLen[v])] = u
			resLen[v]++
			return
		}
		if j := rng.Intn(int(resSeen[v])); j < reservoirSize {
			res[int(v)*reservoirSize+j] = u
		}
	}

	// Seed: a complete digraph on the first few nodes, giving preferential
	// attachment its first tickets, emitted pair by pair without RNG.
	seedSize := min(4, n)
	for i := 0; i < seedSize; i++ {
		for j := 0; j < seedSize; j++ {
			if i == j {
				continue
			}
			// j → i: node i follows (subscribes to) node j.
			emit(graph.NodeID(j), graph.NodeID(i))
			fen.add(j, 1)
			sawFollowee(graph.NodeID(i), graph.NodeID(j))
		}
	}

	targets := make([]graph.NodeID, 0, cfg.AvgFollows*2)
	for v := seedSize; v < n; v++ {
		vid := graph.NodeID(v)
		k := jitter(rng, cfg.AvgFollows)
		targets = targets[:0]
		var prev graph.NodeID = -1
		for f := 0; f < k; f++ {
			var target graph.NodeID = -1
			if prev >= 0 && cfg.TriadProb > 0 && rng.Float64() < cfg.TriadProb {
				if l := int(resLen[prev]); l > 0 {
					target = res[int(prev)*reservoirSize+rng.Intn(l)]
				}
			}
			if target < 0 {
				target = graph.NodeID(fen.find(rng.Int63n(fen.total)))
			}
			if target == vid || contains(targets, target) {
				continue
			}
			targets = append(targets, target)
			emit(target, vid)
			fen.add(int(target), 1)
			sawFollowee(vid, target)
			if rng.Float64() < cfg.Reciprocity {
				emit(vid, target)
				fen.add(v, 1)
				sawFollowee(target, vid)
			}
			prev = target
		}
	}
}

func contains(s []graph.NodeID, x graph.NodeID) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// fenwick is a binary indexed tree over per-node ticket counts supporting
// O(log n) point updates and weighted sampling — the O(n)-state stand-in
// for the ticket array.
type fenwick struct {
	tree  []int64 // 1-indexed partial sums
	total int64
	log   int // largest power of two ≤ len(tree)-1
}

func newFenwick(n int) *fenwick {
	f := &fenwick{tree: make([]int64, n+1), log: 1}
	for f.log*2 <= n {
		f.log *= 2
	}
	return f
}

func (f *fenwick) add(i int, d int64) {
	f.total += d
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += d
	}
}

// find returns the smallest node id whose prefix sum exceeds r, i.e. the
// node owning ticket r in 0 ≤ r < total.
func (f *fenwick) find(r int64) int {
	pos := 0
	for pw := f.log; pw > 0; pw >>= 1 {
		if next := pos + pw; next < len(f.tree) && f.tree[next] <= r {
			pos = next
			r -= f.tree[next]
		}
	}
	return pos
}

// jitter returns a value around avg: avg ± up to 50%, at least 1.
func jitter(rng *rand.Rand, avg int) int {
	if avg <= 1 {
		return 1
	}
	span := avg / 2
	k := avg - span + rng.Intn(2*span+1)
	if k < 1 {
		k = 1
	}
	return k
}

// ErdosRenyi generates a uniform random directed graph with n nodes and
// approximately m edges (duplicates are dropped by the builder).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		b.AddEdge(u, v)
	}
	return b.Build()
}

// ZipfConfiguration generates a directed graph whose out-degrees follow a
// Zipf(s) distribution with the given maximum, wiring targets uniformly
// (a configuration-model-style null graph with degree skew but no
// clustering — useful as an ablation against Social).
func ZipfConfiguration(n int, s float64, maxDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if maxDeg < 1 {
		maxDeg = 1
	}
	z := rand.NewZipf(rng, s, 1, uint64(maxDeg-1))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		d := int(z.Uint64()) + 1
		for i := 0; i < d; i++ {
			v := graph.NodeID(rng.Intn(n))
			b.AddEdge(graph.NodeID(u), v)
		}
	}
	return b.Build()
}
