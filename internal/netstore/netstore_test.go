package netstore

import (
	"net"
	"sync"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/store"
	"piggyback/internal/workload"
)

// startTier launches n servers on ephemeral ports.
func startTier(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addrs[i] = s.Addr()
	}
	return addrs
}

func figure2() (*graph.Graph, *workload.Rates) {
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2},
	})
	return g, workload.NewUniform(3, 1)
}

func dial(t *testing.T, s *core.Schedule, addrs []string) *Client {
	t.Helper()
	cl, err := DialConfigured(s, addrs, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestUpdateQueryOverTCP(t *testing.T) {
	g, _ := figure2()
	s := baseline.PushAll(g)
	cl := dial(t, s, startTier(t, 2))
	if err := cl.Update(0, store.Event{User: 0, ID: 1, TS: 10}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 || got[0].User != 0 {
		t.Fatalf("Query(2) = %v", got)
	}
}

func TestHubDeliveryOverTCP(t *testing.T) {
	g, r := figure2()
	res := nosy.Solve(g, r, nosy.Config{})
	cross, _ := g.EdgeID(0, 2)
	if !res.Schedule.IsCovered(cross) {
		t.Fatal("precondition: 0→2 should be hub-covered")
	}
	cl := dial(t, res.Schedule, startTier(t, 3))
	if err := cl.Update(0, store.Event{User: 0, ID: 9, TS: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range got {
		if ev.User == 0 && ev.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hub-piggybacked event missing from %v", got)
	}
}

func TestBoundedStalenessOverTCPAllEdges(t *testing.T) {
	g := graphgen.Social(graphgen.Config{
		Nodes: 40, AvgFollows: 4, TriadProb: 0.6, Reciprocity: 0.4, Seed: 11,
	})
	r := workload.LogDegree(g, 5)
	res := nosy.Solve(g, r, nosy.Config{})
	cl := dial(t, res.Schedule, startTier(t, 4))
	ts := int64(1)
	g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		if err := cl.Update(u, store.Event{User: u, ID: ts, TS: ts}); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ev := range got {
			if ev.User == u && ev.ID == ts {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge %d→%d: event not delivered over TCP", u, v)
		}
		ts++
		return true
	})
}

func TestConcurrentClients(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(100, 3))
	r := workload.LogDegree(g, 5)
	s := baseline.Hybrid(g, r)
	addrs := startTier(t, 3)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl, err := DialConfigured(s, addrs, DialConfig{})
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				u := graph.NodeID((k*50 + i) % g.NumNodes())
				if i%5 == 0 {
					if err := cl.Update(u, store.Event{User: u, ID: int64(i), TS: int64(i)}); err != nil {
						errCh <- err
						return
					}
				} else if _, err := cl.Query(u); err != nil {
					errCh <- err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestStreamSizeOverTCP(t *testing.T) {
	g, _ := figure2()
	s := baseline.PushAll(g)
	cl := dial(t, s, startTier(t, 1))
	for i := 0; i < 30; i++ {
		if err := cl.Update(0, store.Event{User: 0, ID: int64(i), TS: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != store.StreamSize {
		t.Fatalf("stream size = %d, want %d", len(got), store.StreamSize)
	}
	if got[0].ID != 29 {
		t.Fatalf("newest id = %d, want 29", got[0].ID)
	}
}

func TestDialErrors(t *testing.T) {
	g, r := figure2()
	s := baseline.Hybrid(g, r)
	if _, err := DialConfigured(s, nil, DialConfig{}); err == nil {
		t.Fatal("DialConfigured with no servers accepted")
	}
	if _, err := DialConfigured(s, []string{"127.0.0.1:1"}, DialConfig{}); err == nil {
		t.Fatal("DialConfigured to closed port accepted")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	addrs := startTier(t, 1)
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A huge length prefix must make the server drop the connection, not
	// allocate.
	c.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var buf [1]byte
	if _, err := c.Read(buf[:]); err == nil {
		t.Fatal("server replied to oversized frame instead of closing")
	}
}

// Shutting a healthy tier down is not a protocol error, whichever side
// hangs up first: the handler's pending read ends in EOF when the client
// left first and in net.ErrClosed (or a reset) when Server.Close closed
// the connection under it. Counting the latter made
// netstore_server_proto_errors_total flip 0/1 between identical
// cmd/loadgen runs.
func TestShutdownIsNotAProtoError(t *testing.T) {
	g, _ := figure2()
	sched := baseline.PushAll(g)
	for i := 0; i < 200; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := DialConfigured(sched, []string{s.Addr()}, DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Update(0, store.Event{User: 0, ID: int64(i), TS: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			cl.Close()
			s.Close()
		} else {
			s.Close()
			cl.Close()
		}
		if st := s.Stats(); st.ProtoErrors != 0 || st.Frames == 0 {
			t.Fatalf("round %d (server closed first: %v): %+v", i, i%2 == 1, st)
		}
	}
}

// Failure handling: killing a data-store server mid-workload must NOT
// fail client operations — updates park in the hinted-handoff buffer,
// queries degrade to the pull-all floor — and everything stays prompt.
func TestServerDeathDegradesGracefully(t *testing.T) {
	g, _ := figure2()
	s := baseline.PushAll(g)
	srvA, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	addrs := []string{srvA.Addr(), srvB.Addr()}
	cl, err := DialConfigured(s, addrs, DialConfig{
		Timeout: time.Second, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Workload works while both servers live.
	if err := cl.Update(0, store.Event{User: 0, ID: 1, TS: 1}); err != nil {
		t.Fatal(err)
	}

	srvA.Close()

	// Every user's push set spans both servers here (3 users, 2 servers),
	// so ops now touch a dead server — they must still succeed, promptly.
	done := make(chan error, 1)
	go func() {
		if err := cl.Update(0, store.Event{User: 0, ID: 2, TS: 2}); err != nil {
			done <- err
			return
		}
		for u := graph.NodeID(0); u < 3; u++ {
			if _, qerr := cl.Query(u); qerr != nil {
				done <- qerr
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("operation failed after server death instead of degrading: %v", err)
		}
	case <-time.After(2 * RequestTimeout):
		t.Fatal("request hung after server death")
	}
	st := cl.Stats()
	if st.DownEvents == 0 {
		t.Fatal("dead server was never marked down")
	}
	if st.Parked == 0 {
		t.Fatal("no update was parked in the hinted-handoff buffer")
	}
	if st.DegradedQueries == 0 {
		t.Fatal("no query took the degraded pull-all path")
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	ev := store.Event{User: 42, ID: -7, TS: 1 << 40}
	views := []graph.NodeID{1, 2, 3}
	op, gotEv, _, gotViews, err := decodeRequest(encodeUpdate(nil, ev, views), nil)
	if err != nil || op != opUpdate || gotEv != ev || len(gotViews) != 3 {
		t.Fatalf("update round trip: op=%d ev=%v views=%v err=%v", op, gotEv, gotViews, err)
	}
	var k int
	op, _, k, gotViews, err = decodeRequest(encodeQuery(nil, 10, views[:2]), nil)
	if err != nil || op != opQuery || k != 10 || len(gotViews) != 2 {
		t.Fatalf("query round trip: op=%d k=%d views=%v err=%v", op, k, gotViews, err)
	}
	events := []store.Event{ev, {User: 1, ID: 2, TS: 3}}
	got, err := decodeEvents(encodeEvents(nil, events), nil)
	if err != nil || len(got) != 2 || got[0] != ev {
		t.Fatalf("events round trip: %v err=%v", got, err)
	}
	if _, _, _, _, err := decodeRequest(nil, nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, _, _, _, err := decodeRequest([]byte{9}, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := decodeEvents([]byte{1}, nil); err == nil {
		t.Fatal("short events body accepted")
	}
}
