package netstore

import (
	"fmt"
	"net"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/partition"
)

// Plain go test -bench functions for profiling the request path; the
// numbers that gate anything are the repo benchmark's (DESIGN.md §17).

// benchTier is two loopback servers, a client dialled with a pull-all or
// push-all plan, and two users who reach the same number of views (eight
// neighbours, followed and following, and their own): users[1]'s all sit
// on its own server, users[2]'s are split four and four, so the one's
// requests are one batch and the other's two. Every view is warm.
func benchTier(b *testing.B, plan func(*graph.Graph) *core.Schedule) (cl *Client, users [3]graph.NodeID) {
	b.Helper()
	const n = 64
	assign := partition.Hash(n, 2, 0)
	users = [3]graph.NodeID{1: 0, 2: 1}
	var on [2][]graph.NodeID // every other node, by server
	for v := graph.NodeID(2); v < n; v++ {
		on[assign.Of(v)] = append(on[assign.Of(v)], v)
	}
	var edges []graph.Edge
	befriend := func(u graph.NodeID, vs []graph.NodeID) {
		for _, v := range vs {
			edges = append(edges, graph.Edge{From: v, To: u}, graph.Edge{From: u, To: v})
		}
	}
	befriend(users[1], on[assign.Of(users[1])][:8])
	befriend(users[2], on[0][:4])
	befriend(users[2], on[1][:4])
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	cl, err := DialConfigured(plan(graph.FromEdges(n, edges)), addrs, DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	for i := 0; i < 12*n; i++ {
		u := graph.NodeID(i % n)
		if err := cl.Update(u, Event{User: u, ID: int64(i), TS: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	p := cl.plan.Load()
	for want := 1; want <= 2; want++ {
		if q, u := len(p.pullBatch[users[want]]), len(p.pushBatch[users[want]]); max(q, u) != want {
			b.Fatalf("user %d has %d query and %d update batches, want %d", users[want], q, u, want)
		}
	}
	return cl, users
}

func BenchmarkQueryRoundTrip(b *testing.B) {
	cl, users := benchTier(b, baseline.PullAll)
	for n := 1; n <= 2; n++ {
		b.Run(fmt.Sprintf("batches=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Query(users[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUpdateRoundTrip(b *testing.B) {
	cl, users := benchTier(b, baseline.PushAll)
	for n := 1; n <= 2; n++ {
		b.Run(fmt.Sprintf("batches=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := Event{User: users[n], ID: int64(i), TS: int64(1e6 + i)}
				if err := cl.Update(users[n], ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkEvents []Event

// BenchmarkServerQueryMerge is the server half of a query alone: V full
// views, their heads copied under the shard locks and merged to the
// stream size.
func BenchmarkServerQueryMerge(b *testing.B) {
	views := make(map[graph.NodeID][]Event)
	var ask []graph.NodeID
	for v := 0; v < 64; v++ {
		for j := 0; j < ViewCap; j++ {
			views[graph.NodeID(v)] = append(views[graph.NodeID(v)], Event{
				User: graph.NodeID(v), ID: int64(j), TS: int64(64*(ViewCap-j) + v)})
		}
		ask = append(ask, graph.NodeID(v))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServerOn(ln, ServerConfig{Views: views})
	defer srv.Close()
	for _, v := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("V=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			var c connScratch
			for i := 0; i < b.N; i++ {
				sinkEvents = srv.query(&c, ask[:v], StreamSize)
			}
		})
	}
}
