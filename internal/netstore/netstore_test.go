package netstore

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
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

// startCluster starts an in-process cluster of n servers routing by s.
func startCluster(t *testing.T, s *core.Schedule, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(s, ClusterOptions{Servers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// An opener returns a client of a fresh n-server tier routing by s. One
// client serves two tiers: overTCP, servers on loopback, and overPipe, a
// Cluster's servers over in-memory pipes. Each behaviour below has one
// check body and one test per tier.
type opener func(t *testing.T, s *core.Schedule, n int) *Client

func overTCP(t *testing.T, s *core.Schedule, n int) *Client { return dial(t, s, startTier(t, n)) }

func overPipe(t *testing.T, s *core.Schedule, n int) *Client {
	cl := startCluster(t, s, n).NewClient()
	t.Cleanup(cl.Close)
	return cl
}

// mustQuery is Query failing the test on an error.
func mustQuery(t *testing.T, cl *Client, u graph.NodeID) []Event {
	t.Helper()
	got, err := cl.Query(u)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func mustUpdate(t *testing.T, cl *Client, u graph.NodeID, ev Event) {
	t.Helper()
	if err := cl.Update(u, ev); err != nil {
		t.Fatal(err)
	}
}

func contains(evs []Event, ev Event) bool {
	for _, got := range evs {
		if got == ev {
			return true
		}
	}
	return false
}

// An event reaches a direct follower whether the edge is pushed or
// pulled, and its producer's own stream.
func checkUpdateThenQuery(t *testing.T, open opener, s *core.Schedule) {
	t.Helper()
	cl := open(t, s, 2)
	ev := Event{User: 0, ID: 1, TS: 10}
	mustUpdate(t, cl, 0, ev)
	for _, u := range []graph.NodeID{2, 0} {
		if got := mustQuery(t, cl, u); len(got) != 1 || got[0] != ev {
			t.Fatalf("Query(%d) = %v, want [%v]", u, got, ev)
		}
	}
}

func TestUpdateQueryOverTCP(t *testing.T) {
	g, _ := figure2()
	t.Run("push", func(t *testing.T) { checkUpdateThenQuery(t, overTCP, baseline.PushAll(g)) })
	t.Run("pull", func(t *testing.T) { checkUpdateThenQuery(t, overTCP, baseline.PullAll(g)) })
}

func TestUpdateThenQueryDirectPush(t *testing.T) {
	g, _ := figure2()
	checkUpdateThenQuery(t, overPipe, baseline.PushAll(g))
}

func TestUpdateThenQueryDirectPull(t *testing.T) {
	g, _ := figure2()
	checkUpdateThenQuery(t, overPipe, baseline.PullAll(g))
}

// Bounded staleness through a hub (Θ = 2Δ): after the update completes,
// the event is in the hub's view; the next query pulls it from there.
func checkHubDelivery(t *testing.T, open opener) {
	t.Helper()
	g, r := figure2()
	res := nosy.Solve(g, r, nosy.Config{})
	cross, _ := g.EdgeID(0, 2)
	if !res.IsCovered(cross) {
		t.Fatal("precondition: 0→2 should be hub-covered")
	}
	cl := open(t, res, 3)
	ev := Event{User: 0, ID: 9, TS: 5}
	mustUpdate(t, cl, 0, ev)
	if got := mustQuery(t, cl, 2); !contains(got, ev) {
		t.Fatalf("hub-piggybacked event missing from %v", got)
	}
}

func TestHubDeliveryOverTCP(t *testing.T)        { checkHubDelivery(t, overTCP) }
func TestUpdateThenQueryThroughHub(t *testing.T) { checkHubDelivery(t, overPipe) }

// Every schedule that passes Validate must deliver every producer's
// events to every consumer — the prototype-level restatement of
// Theorem 1, checked on a real graph with a real PARALLELNOSY schedule,
// and again after a live swap from the hybrid plan to it.
func checkBoundedStaleness(t *testing.T, open opener) {
	t.Helper()
	g := graphgen.Social(graphgen.Config{
		Nodes: 60, AvgFollows: 5, TriadProb: 0.6, Reciprocity: 0.4, Seed: 3,
	})
	r := workload.LogDegree(g, 5)
	pn := nosy.Solve(g, r, nosy.Config{})
	hybrid := baseline.Hybrid(g, r)
	for _, s := range []*core.Schedule{pn, hybrid} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []struct {
		name  string
		plans []*core.Schedule // served in turn, swapped live
	}{{"nosy", []*core.Schedule{pn}}, {"hybrid-then-nosy", []*core.Schedule{hybrid, pn}}} {
		t.Run(in.name, func(t *testing.T) {
			cl := open(t, in.plans[0], 5)
			ts := int64(1)
			for i, s := range in.plans {
				if i > 0 {
					if err := cl.Swap(s); err != nil {
						t.Fatal(err)
					}
				}
				g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
					ev := Event{User: u, ID: ts, TS: ts}
					mustUpdate(t, cl, u, ev)
					if !contains(mustQuery(t, cl, v), ev) {
						t.Fatalf("plan %d: edge %d→%d: event not visible after one round", i, u, v)
					}
					ts++
					return true
				})
			}
		})
	}
}

func TestBoundedStalenessOverTCPAllEdges(t *testing.T) { checkBoundedStaleness(t, overTCP) }
func TestBoundedStalenessAllEdges(t *testing.T)        { checkBoundedStaleness(t, overPipe) }

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
					if err := cl.Update(u, Event{User: u, ID: int64(i), TS: int64(i)}); err != nil {
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

// A query returns the StreamSize newest events, newest first.
func checkStreamSize(t *testing.T, open opener) {
	t.Helper()
	g, _ := figure2()
	cl := open(t, baseline.PushAll(g), 1)
	for i := 0; i < 30; i++ {
		mustUpdate(t, cl, 0, Event{User: 0, ID: int64(i), TS: int64(i)})
	}
	got := mustQuery(t, cl, 2)
	if len(got) != StreamSize {
		t.Fatalf("stream has %d events, want %d", len(got), StreamSize)
	}
	for i, ev := range got {
		if ev.ID != int64(29-i) {
			t.Fatalf("stream[%d] = id %d, want %d", i, ev.ID, 29-i)
		}
	}
}

func TestStreamSizeOverTCP(t *testing.T) { checkStreamSize(t, overTCP) }
func TestStreamSizeFilter(t *testing.T)  { checkStreamSize(t, overPipe) }

// pushPullAll pushes and pulls every edge, so that a user's updates and
// queries reach the same servers.
func pushPullAll(g *graph.Graph) *core.Schedule {
	s := baseline.PushAll(g)
	for e := 0; e < g.NumEdges(); e++ {
		s.SetPull(graph.EdgeID(e))
	}
	return s
}

// TestTwoServerRequestAllocatesNothing: a request's second batch goes to
// a long-lived helper, so a warm two-server update allocates nothing, a
// query only the slice it returns, no request starts a goroutine, and
// Close ends the helper.
func TestTwoServerRequestAllocatesNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	cl, users := twoServerTier(t, pushPullAll)
	u, id := users[2], int64(0)
	update := func() {
		id++
		if err := cl.Update(u, Event{User: u, ID: id, TS: 1e6 + id}); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		if _, err := cl.Query(u); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, update); n != 0 {
		t.Errorf("a two-server update makes %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, query); n != 1 {
		t.Errorf("a two-server query makes %v allocations, want 1 (the slice it returns)", n)
	}
	warm := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		update()
		query()
	}
	if n := runtime.NumGoroutine(); n > warm {
		t.Errorf("1000 two-server requests left %d goroutines running, %d before them", n, warm)
	}
	cl.Close()
	// What is left is the two servers' accept loops.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d: a helper outlived its client", runtime.NumGoroutine(), base+2)
		}
	}
}

// TestCloseRacesRequests: Close may run while another goroutine's request
// is in flight. It stops the helpers without stranding a batch already fed
// to one, and the next request dials again and starts new helpers.
func TestCloseRacesRequests(t *testing.T) {
	cl, users := twoServerTier(t, pushPullAll)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cl.Close()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	u := users[2]
	for i := 0; i < 1000; i++ {
		ev := Event{User: u, ID: int64(i), TS: 2e6 + int64(i)}
		mustUpdate(t, cl, u, ev)
		if got := mustQuery(t, cl, u); got[0] != ev {
			t.Fatalf("request %d: query returned %v first, want %v", i, got[0], ev)
		}
	}
	close(stop)
	<-stopped
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
		if err := cl.Update(0, Event{User: 0, ID: int64(i), TS: int64(i)}); err != nil {
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
	if err := cl.Update(0, Event{User: 0, ID: 1, TS: 1}); err != nil {
		t.Fatal(err)
	}

	srvA.Close()

	// Every user's push set spans both servers here (3 users, 2 servers),
	// so ops now touch a dead server — they must still succeed, promptly.
	done := make(chan error, 1)
	go func() {
		if err := cl.Update(0, Event{User: 0, ID: 2, TS: 2}); err != nil {
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
	ev := Event{User: 42, ID: -7, TS: 1 << 40}
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
	events := []Event{ev, {User: 1, ID: 2, TS: 3}}
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
