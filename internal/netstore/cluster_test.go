package netstore

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/fault"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/partition"
	"piggyback/internal/workload"
)

// groupByMap is the map-based grouping newPlan and the degraded query
// path used before the counting pass, kept as the reference: one batch
// per server a list touches, in server order, views in list order.
func groupByMap(assign partition.Assignment, views []graph.NodeID) []batch {
	byServer := make(map[int][]graph.NodeID)
	for _, v := range views {
		s := int(assign.Of(v))
		byServer[s] = append(byServer[s], v)
	}
	out := make([]batch, 0, len(byServer))
	for s, vs := range byServer {
		out = append(out, batch{server: s, views: vs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].server < out[j].server })
	return out
}

// planAllocs is what newPlan allocates, however many users it groups:
// the plan and its two per-user tables, the two list buffers, the
// grouper's two scratch slices and its two arenas (the map grouping made
// 30 261 on serve_static's graph).
const planAllocs = 9

// TestPlanMatchesMapGrouping holds the counting pass to the map-based
// grouping, batch for batch and view for view, on serve_static's graph
// and two servers and on BenchmarkPrototypeRequests' 64-server cluster;
// the degraded query's own-views-of-in-neighbours lists too.
func TestPlanMatchesMapGrouping(t *testing.T) {
	for _, in := range []struct {
		name    string
		g       *graph.Graph
		servers int
		seed    int64
	}{
		{"serve_static", graphgen.StreamSocial(graphgen.FlickrLikeEdges(60_000, 7)), 2, 7},
		{"prototype", graphgen.Social(graphgen.FlickrLike(800, 7)), 64, 0},
	} {
		t.Run(in.name, func(t *testing.T) {
			s := nosy.Solve(in.g, workload.LogDegree(in.g, 5), nosy.Config{})
			assign := partition.Hash(in.g.NumNodes(), in.servers, in.seed)
			p := newPlan(s, assign)
			same := func(what string, u int, got, want []batch) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("user %d: %s batches\n%v\nare not the map grouping's\n%v", u, what, got, want)
				}
			}
			for u := 0; u < in.g.NumNodes(); u++ {
				uid := graph.NodeID(u)
				same("update", u, p.pushBatch[u], groupByMap(assign, append(s.AppendPushSet(nil, uid), uid)))
				same("query", u, p.pullBatch[u], groupByMap(assign, append(s.AppendPullSet(nil, uid), uid)))
				floor := append([]graph.NodeID{uid}, in.g.InNeighbors(uid)...)
				same("degraded query", u, newGrouper(assign).group(floor), groupByMap(assign, floor))
			}
			if n := testing.AllocsPerRun(10, func() { newPlan(s, assign) }); n != planAllocs {
				t.Fatalf("newPlan made %v allocations for %d users, want %d", n, in.g.NumNodes(), planAllocs)
			}
		})
	}
}

func TestViewCapTrims(t *testing.T) {
	g, _ := figure2()
	cl := startCluster(t, baseline.PushAll(g), 1).NewClient()
	defer cl.Close()
	for i := 0; i < ViewCap*3; i++ {
		mustUpdate(t, cl, 0, Event{User: 0, ID: int64(i), TS: int64(i)})
	}
	// The query still returns the newest events despite trimming.
	if got := mustQuery(t, cl, 2); got[0].ID != int64(ViewCap*3-1) {
		t.Fatalf("newest event id = %d, want %d", got[0].ID, ViewCap*3-1)
	}
}

func TestMessageCounts(t *testing.T) {
	g, r := figure2()
	s := baseline.Hybrid(g, r)  // uniform ratio 1: pushes win ties
	c := startCluster(t, s, 64) // many servers → no accidental batching
	// With hybrid at ratio 1, every edge is a push (ties to push):
	// update by 0 touches views {0,1,2} → usually 3 distinct servers.
	if got := c.MessagesPerUpdate(0); got < 1 || got > 3 {
		t.Fatalf("MessagesPerUpdate(0) = %d", got)
	}
	// Query by 2 touches only its own view.
	if got := c.MessagesPerQuery(2); got != 1 {
		t.Fatalf("MessagesPerQuery(2) = %d, want 1", got)
	}
}

func TestGenerateTraceDistribution(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(200, 1))
	r := workload.LogDegree(g, 5)
	tr := GenerateTrace(r, 20000, 7)
	if len(tr) != 20000 {
		t.Fatalf("trace length %d", len(tr))
	}
	updates := 0
	for _, req := range tr {
		if req.IsUpdate {
			updates++
		}
		if int(req.User) >= g.NumNodes() {
			t.Fatalf("request user %d out of range", req.User)
		}
	}
	// Update fraction should approximate Σrp/(Σrp+Σrc) = 1/(1+5) ≈ 0.167.
	frac := float64(updates) / float64(len(tr))
	if frac < 0.12 || frac > 0.22 {
		t.Fatalf("update fraction = %.3f, want ≈ 1/6", frac)
	}
}

// Rates that ask for nothing give an empty trace: no rates at all, and
// every rate 0, which must not put n requests on one user either.
func TestGenerateTraceWithoutRates(t *testing.T) {
	for _, c := range []struct {
		name string
		r    *workload.Rates
	}{
		{"no rates", &workload.Rates{}},
		{"all zero", &workload.Rates{Prod: make([]float64, 5), Cons: make([]float64, 5)}},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: GenerateTrace panicked: %v", c.name, p)
				}
			}()
			if tr := GenerateTrace(c.r, 10, 1); len(tr) != 0 {
				t.Errorf("%s: %d requests, want none: %v", c.name, len(tr), tr)
			}
		}()
	}
}

func TestMeasureThroughputRuns(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(150, 2))
	r := workload.LogDegree(g, 5)
	s := nosy.Solve(g, r, nosy.Config{})
	c := startCluster(t, s, 8)
	tr := GenerateTrace(r, 2000, 3)
	res := MeasureThroughput(c, tr, 4)
	if res.Requests != 2000 || res.ReqPerSec <= 0 || res.PerClientRate <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.PerClientRate*float64(res.Clients) != res.ReqPerSec {
		t.Fatalf("per-client rate inconsistent: %+v", res)
	}
	if res.LatencyP50 <= 0 || res.LatencyP50 > res.LatencyP95 || res.LatencyP95 > res.LatencyP99 {
		t.Fatalf("latency percentiles out of order: p50=%v p95=%v p99=%v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
}

// planMessages is the message rate the cluster's plan serves: every
// update by u costs MessagesPerUpdate(u), every query MessagesPerQuery(u).
func planMessages(c *Cluster, r *workload.Rates) float64 {
	total := 0.0
	for u := range r.Prod {
		total += r.Prod[u]*float64(c.MessagesPerUpdate(graph.NodeID(u))) +
			r.Cons[u]*float64(c.MessagesPerQuery(graph.NodeID(u)))
	}
	return total
}

// TestPlanMessagesMatchPartitionCost ties what the cluster serves to the
// cost model: at 1, 2, 3 and 64 servers, the messages the plan sends,
// weighted by the rates, equal partition.Cost of the schedule under the
// cluster's hash placement. A plan that drops the user's own view
// breaks the identity, and so does any that touches other servers than
// the model prices. Every request touches at least its own view's server.
func TestPlanMessagesMatchPartitionCost(t *testing.T) {
	g := graphgen.Social(graphgen.TwitterLike(200, 4))
	r := workload.LogDegree(g, 5)
	reqs := 0.0
	for u := range r.Prod {
		reqs += r.Prod[u] + r.Cons[u]
	}
	const seed = 5
	for _, s := range []*core.Schedule{baseline.Hybrid(g, r), nosy.Solve(g, r, nosy.Config{})} {
		for _, servers := range []int{1, 2, 3, 64} {
			c, err := NewCluster(s, ClusterOptions{Servers: servers, PartitionSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got := planMessages(c, r)
			c.Close()
			want := partition.Cost(s, r, partition.Hash(g.NumNodes(), servers, seed))
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("%d servers: plan serves %v messages, partition.Cost %v", servers, got, want)
			}
			if got < reqs {
				t.Errorf("%d servers: %v messages for %v requests, want at least one each", servers, got, reqs)
			}
		}
	}
}

func TestClusterRejectsZeroServers(t *testing.T) {
	g, r := figure2()
	if _, err := NewCluster(baseline.Hybrid(g, r), ClusterOptions{Servers: 0}); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestMoreServersMoreMessages(t *testing.T) {
	// The Figure 6 mechanism: with more servers, requests touch more
	// distinct servers, so average messages per request rises.
	g := graphgen.Social(graphgen.FlickrLike(300, 5))
	r := workload.LogDegree(g, 5)
	s := baseline.Hybrid(g, r)
	c1, c64 := startCluster(t, s, 1), startCluster(t, s, 64)
	if planMessages(c1, r) >= planMessages(c64, r) {
		t.Fatalf("messages per request should grow with servers: %v vs %v",
			planMessages(c1, r), planMessages(c64, r))
	}
}

// TestSwapSchedule exercises the live schedule swap: requests keep
// flowing (from concurrent clients, for the -race CI run) while the
// plan is replaced, and routing reflects the new schedule afterwards.
func TestSwapSchedule(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(150, 3))
	r := workload.LogDegree(g, 5)
	hybrid := baseline.Hybrid(g, r)
	pn := nosy.Solve(g, r, nosy.Config{})
	c := startCluster(t, hybrid, 4)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl := c.NewClient()
		defer cl.Close()
		for u := graph.NodeID(0); ; u = (u + 1) % graph.NodeID(g.NumNodes()) {
			select {
			case <-stop:
				return
			default:
			}
			cl.Update(u, Event{User: u, ID: 1, TS: 1})
			cl.Query(u)
		}
	}()
	for i := 0; i < 10; i++ {
		next := hybrid
		if i%2 == 1 {
			next = pn // odd last index: the final plan routes by pn
		}
		if err := c.Swap(next); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	// The cluster now routes by pn. A reference cluster built directly
	// on pn (same server count and partition seed → same placement)
	// must agree with the swapped plan for every user, and the plan
	// must actually have moved off the hybrid batches for someone.
	ref := startCluster(t, pn, 4)
	moved := false
	pre := startCluster(t, hybrid, 4)
	for u := 0; u < g.NumNodes(); u++ {
		uid := graph.NodeID(u)
		if got, want := c.MessagesPerQuery(uid), ref.MessagesPerQuery(uid); got != want {
			t.Fatalf("user %d: MessagesPerQuery after swap = %d, want %d (pn plan)", u, got, want)
		}
		if got, want := c.MessagesPerUpdate(uid), ref.MessagesPerUpdate(uid); got != want {
			t.Fatalf("user %d: MessagesPerUpdate after swap = %d, want %d (pn plan)", u, got, want)
		}
		if c.MessagesPerQuery(uid) != pre.MessagesPerQuery(uid) ||
			c.MessagesPerUpdate(uid) != pre.MessagesPerUpdate(uid) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("swapped plan is identical to the hybrid plan for every user; Swap had no observable effect")
	}

	// Swapping a schedule over a different node-id space must fail, on a
	// cluster and on a dialled client alike.
	bad := baseline.PushAll(graphgen.Social(graphgen.FlickrLike(50, 3)))
	if err := c.Swap(bad); err == nil {
		t.Fatal("Cluster.Swap accepted a schedule with a different node count")
	}
	if err := dial(t, hybrid, startTier(t, 2)).Swap(bad); err == nil {
		t.Fatal("Client.Swap accepted a schedule with a different node count")
	}
}

// TestSwapRacesFaultyServersUnderLoad extends the swap-under-traffic
// test with fault injection: while concurrent clients hammer
// Update/Query, one goroutine keeps swapping the plan and every server
// connection is reset under the clients at its 10th, 40th and 90th
// reply, so requests fail mid-swap and are retried on fresh
// connections. Run under -race this pins the shared plan pointer, the
// clients' retry and redial paths and the servers' connection handling
// against each other; functionally, the cluster must stay live and
// serve writes issued after the chaos ends.
func TestSwapRacesFaultyServersUnderLoad(t *testing.T) {
	g := graphgen.Social(graphgen.FlickrLike(150, 3))
	r := workload.LogDegree(g, 5)
	hybrid := baseline.Hybrid(g, r)
	pn := nosy.Solve(g, r, nosy.Config{})
	plan := &fault.Plan{Rules: []fault.Rule{
		{Kind: fault.KindReset, Conn: -1, Op: 10},
		{Kind: fault.KindReset, Conn: -1, Op: 40},
		{Kind: fault.KindReset, Conn: -1, Op: 90},
	}}
	c, err := NewCluster(hybrid, ClusterOptions{Servers: 4, wrap: plan.WrapListener})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var retries atomic.Int64
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := c.NewClient()
			defer func() { retries.Add(int64(cl.Stats().Retries)); cl.Close() }()
			u := graph.NodeID(k)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cl.Update(u, Event{User: u, ID: int64(i), TS: int64(i)})
				cl.Query(u)
				u = (u + 1) % graph.NodeID(g.NumNodes())
			}
		}(k)
	}
	// Keep swapping until the resets have hit the clients a few times.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 25 || len(plan.Fired()) < 8; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("only %d resets fired in 30 s of load", len(plan.Fired()))
		}
		next := hybrid
		if i%2 == 1 {
			next = pn
		}
		if err := c.Swap(next); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if retries.Load() == 0 {
		t.Fatalf("%d resets fired and no request was retried", len(plan.Fired()))
	}

	// A reset request is retried on a fresh connection, and a server
	// marked down is probed every few operations, so repeating a write
	// must land within a bounded number of attempts — anything more
	// means the cluster wedged rather than merely failed requests.
	cl := c.NewClient()
	defer cl.Close()
	for i := 0; ; i++ {
		ev := Event{User: 0, ID: int64(4242 + i), TS: int64(1<<50 + i)}
		mustUpdate(t, cl, 0, ev)
		if contains(mustQuery(t, cl, 0), ev) {
			break
		}
		if i > 25*3 {
			t.Fatal("writes still not landing after the chaos ended")
		}
	}
}
