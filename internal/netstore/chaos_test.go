package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/core"
	"piggyback/internal/fault"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/workload"
)

const (
	chaosSeed    = 42
	chaosServers = 3
)

// chaosWorkload builds the pinned graph, schedule, and request trace
// shared by the fault-free and chaos runs.
func chaosWorkload(ops int) (*core.Schedule, Trace) {
	g := graphgen.Social(graphgen.TwitterLike(80, 9))
	r := workload.LogDegree(g, 5)
	return baseline.Hybrid(g, r), GenerateTrace(r, ops, chaosSeed)
}

// traceEvent is the event op i shares — a pure function of the trace,
// identical in every run, with a trace-unique timestamp so the final
// per-view event sets are insertion-order independent.
func traceEvent(req Request, i int) Event {
	return Event{User: req.User, ID: int64(i), TS: int64(i + 1)}
}

// restartServer rebinds a crashed server's address with its durable
// views restored — the restart half of a crash-recovery cycle.
func restartServer(t *testing.T, addr string, views map[graph.NodeID][]Event) *Server {
	t.Helper()
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return NewServerOn(ln, ServerConfig{Views: views})
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("restarting server on %s: %v", addr, err)
	return nil
}

// runFaultFree applies the trace against a healthy cluster and returns
// each server's final views — the reference the chaos run must converge
// to byte for byte.
func runFaultFree(t *testing.T, sched *core.Schedule, trace Trace) []map[graph.NodeID][]Event {
	t.Helper()
	srvs := make([]*Server, chaosServers)
	addrs := make([]string, chaosServers)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	cl, err := DialConfigured(sched, addrs, DialConfig{Seed: chaosSeed})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range trace {
		if req.IsUpdate {
			if err := cl.Update(req.User, traceEvent(req, i)); err != nil {
				t.Fatalf("fault-free op %d: %v", i, err)
			}
		} else if _, err := cl.Query(req.User); err != nil {
			t.Fatalf("fault-free op %d: %v", i, err)
		}
	}
	cl.Close()
	snaps := make([]map[graph.NodeID][]Event, chaosServers)
	for i, srv := range srvs {
		srv.Close()
		snaps[i] = srv.Snapshot()
	}
	return snaps
}

// runChaos applies the same trace under the pinned fault schedule —
// delayed and dropped frames plus a mid-stream reset on server 0, a
// crash-and-restart of server 1 mid-trace, and a crash of server 2 that
// only recovers after the trace — and asserts the acceptance criteria:
// zero client-visible operation failures and, after handoff replay,
// views byte-identical to the fault-free run. It returns the per-server
// retry logs and the client's final counters (bytes zeroed) so the
// caller can pin the failure handling to what shipped.
func runChaos(t *testing.T, sched *core.Schedule, trace Trace, want []map[graph.NodeID][]Event) ([][]string, ClientStats) {
	t.Helper()
	ops := len(trace)
	crash1, restart1, crash2 := ops/5, ops*3/5, ops*4/5

	plan := &fault.Plan{Rules: []fault.Rule{
		{Kind: fault.KindDelay, Conn: -1, Op: 40, Count: 3, Delay: 2 * time.Millisecond},
		{Kind: fault.KindDelay, Conn: -1, Op: 200, Count: 2, Delay: 3 * time.Millisecond},
		{Kind: fault.KindReset, Conn: 0, Op: 120},
		{Kind: fault.KindDrop, Conn: 1, Op: 150},
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv0 := NewServerOn(plan.WrapListener(ln), ServerConfig{})
	srv1, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{srv0.Addr(), srv1.Addr(), srv2.Addr()}

	logs := make([][]string, chaosServers)
	cl, err := DialConfigured(sched, addrs, DialConfig{
		Seed:        chaosSeed,
		Timeout:     500 * time.Millisecond,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		ProbeEvery:  4,
		OnRetry: func(server, attempt int, delay time.Duration) {
			logs[server] = append(logs[server], fmt.Sprintf("a%d/%s", attempt, delay))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var snap1, snap2 map[graph.NodeID][]Event
	for i, req := range trace {
		switch i {
		case crash1:
			srv1.Close()
			snap1 = srv1.Snapshot()
		case restart1:
			srv1 = restartServer(t, addrs[1], snap1)
		case crash2:
			srv2.Close()
			snap2 = srv2.Snapshot()
		}
		if req.IsUpdate {
			if err := cl.Update(req.User, traceEvent(req, i)); err != nil {
				t.Fatalf("chaos op %d (update): client-visible failure: %v", i, err)
			}
		} else if _, err := cl.Query(req.User); err != nil {
			t.Fatalf("chaos op %d (query): client-visible failure: %v", i, err)
		}
	}
	srv2 = restartServer(t, addrs[2], snap2)
	if still := cl.Recover(); still != 0 {
		t.Fatalf("%d servers still down after every restart", still)
	}

	st := cl.Stats()
	srvs := []*Server{srv0, srv1, srv2}
	for i, srv := range srvs {
		srv.Close()
		got := srv.Snapshot()
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("server %d: views diverged from the fault-free run after recovery (%d views vs %d)",
				i, len(got), len(want[i]))
		}
	}

	if st.DownEvents < 2 {
		t.Fatalf("both crashes should have been detected: %+v", st)
	}
	if st.Parked == 0 || st.Replayed != st.Parked || st.HandoffDrops != 0 {
		t.Fatalf("hinted handoff did not park and fully replay: %+v", st)
	}
	if st.DegradedQueries == 0 {
		t.Fatalf("no query took the degraded pull-all path during downtime: %+v", st)
	}
	if st.Retries == 0 || st.Redials <= chaosServers {
		t.Fatalf("injected faults caused no retries/redials: %+v", st)
	}
	if fired := plan.FiredOn(0); len(fired) == 0 {
		t.Fatal("the fault plan injected nothing on server 0's first connection")
	}
	st.BytesRead, st.BytesWritten = 0, 0
	return logs, st
}

// TestChaosAcceptance is the PR's acceptance test: a seeded fault plan
// (two server crashes, one mid-trace restart, delayed/dropped/reset
// frames) over the request trace must end with zero failed client
// operations and, after hinted-handoff replay, views byte-identical to
// a fault-free run. Running the chaos twice must produce byte-identical
// per-server retry schedules — the determinism claim of package fault —
// and both must be the schedule and the counters recorded at commit
// acc89d8, before the request path was rebuilt: a retry, redial, park or
// probe that a change to call counts differently fails here by name.
func TestChaosAcceptance(t *testing.T) {
	ops := 2000
	wantStats := ClientStats{Retries: 6, Redials: 118, Parked: 184, Replayed: 184, DegradedQueries: 251, DownEvents: 2, UpEvents: 2}
	if testing.Short() {
		ops = 800
		wantStats = ClientStats{Retries: 6, Redials: 55, Parked: 77, Replayed: 77, DegradedQueries: 104, DownEvents: 2, UpEvents: 2}
	}
	wantLogs := [][]string{ // OnRetry as a<attempt>/<delay>, the same at both sizes
		{"a1/2.09253ms", "a1/2.652711ms"},
		{"a1/2.753528ms", "a2/4.259686ms"},
		{"a1/2.040502ms", "a2/4.259475ms"},
	}
	sched, trace := chaosWorkload(ops)
	want := runFaultFree(t, sched, trace)

	for run := 0; run < 2; run++ {
		logs, st := runChaos(t, sched, trace, want)
		for si := range wantLogs {
			if !reflect.DeepEqual(logs[si], wantLogs[si]) {
				t.Fatalf("run %d, server %d: retry schedule\n%v\nis not the pinned\n%v", run, si, logs[si], wantLogs[si])
			}
		}
		if st != wantStats {
			t.Fatalf("run %d: client counters\n%+v\nare not the pinned\n%+v", run, st, wantStats)
		}
	}
}

// TestRedialAfterTimeout is the regression test for the conn-reuse bug:
// a request whose reply is lost (server-side drop) times out, and the
// client must retry on a FRESH connection — reusing the timed-out one
// would read the next reply against the wrong request. The retried
// update must also not double-insert (idempotent server insert).
func TestRedialAfterTimeout(t *testing.T) {
	g, _ := figure2()
	s := baseline.PushAll(g)
	// Connection 0's second reply (write op 1) is silently dropped.
	plan := &fault.Plan{Rules: []fault.Rule{{Kind: fault.KindDrop, Conn: 0, Op: 1}}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(plan.WrapListener(ln), ServerConfig{})
	defer srv.Close()

	cl, err := DialConfigured(s, []string{srv.Addr()}, DialConfig{
		Timeout: 150 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Update(0, Event{User: 0, ID: 1, TS: 1}); err != nil {
		t.Fatal(err)
	}
	// This update is applied by the server, but its ack is dropped: the
	// client times out and must redial + retry the identical frame.
	if err := cl.Update(0, Event{User: 0, ID: 2, TS: 2}); err != nil {
		t.Fatalf("update with a dropped ack failed instead of being retried: %v", err)
	}
	// Next request on the same logical server must succeed — and see the
	// retried event exactly once.
	got, err := cl.Query(2)
	if err != nil {
		t.Fatalf("request after a timed-out request failed: %v", err)
	}
	n := 0
	for _, ev := range got {
		if ev.User == 0 && ev.ID == 2 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("retried update appears %d times in the view, want exactly 1 (%v)", n, got)
	}
	st := cl.Stats()
	if st.Retries == 0 {
		t.Fatalf("dropped ack caused no retry: %+v", st)
	}
	if st.Redials < 2 {
		t.Fatalf("timed-out connection was reused instead of redialed: %+v", st)
	}
	if len(plan.FiredOn(0)) != 1 {
		t.Fatalf("fault plan fired %v, want exactly the one drop", plan.Fired())
	}
}

// TestDeadlineStillBoundsRoundTrip: the client re-arms a connection's
// deadline only once less than ⅞ of Timeout is left, and a closed
// connection takes its armed deadline with it. So a lost reply fails its
// round trip after ⅞·Timeout at the soonest and Timeout at the latest,
// however long the connection was busy before, and the first message on
// a redialled connection is armed even when the connection before it
// died with a fresh deadline. Against a closeConn that keeps the armed
// deadline, the last lost reply is waited for forever.
func TestDeadlineStillBoundsRoundTrip(t *testing.T) {
	const (
		timeout = 150 * time.Millisecond
		slack   = 100 * time.Millisecond // scheduling, past the deadline
		busy    = 20                     // round trips, timeout/16 apart
	)
	plan := &fault.Plan{Rules: []fault.Rule{
		{Kind: fault.KindDrop, Conn: 0, Op: busy}, // the reply after the busy stretch
		{Kind: fault.KindReset, Conn: 1, Op: 0},   // the next connection dies at its first reply
		{Kind: fault.KindDrop, Conn: 2, Op: 0},    // the one after loses its first reply
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(plan.WrapListener(ln), ServerConfig{})
	defer srv.Close()
	g, _ := figure2()
	// No retries, and every call to a down server probes it with a redial.
	cl, err := DialConfigured(baseline.PushAll(g), []string{srv.Addr()}, DialConfig{
		Timeout: timeout, Retries: -1, ProbeEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// roundTrip sends one query through call, on a goroutine of its own so
	// that a round trip with no deadline fails the test instead of hanging
	// it.
	roundTrip := func() (time.Duration, error) {
		t.Helper()
		frame := frameOf(0, encodeQuery(nil, StreamSize, []graph.NodeID{0}))
		type result struct {
			took time.Duration
			err  error
		}
		done := make(chan result, 1)
		t0 := time.Now()
		go func() {
			_, err := cl.call(0, frame)
			done <- result{time.Since(t0), err}
		}()
		select {
		case r := <-done:
			return r.took, r.err
		case <-time.After(timeout + 2*time.Second):
			srv.Close() // ends the read, so that the deferred Close can take the connection
			t.Fatal("a round trip whose reply was lost is still waiting: no deadline was armed")
			return 0, nil
		}
	}
	timesOut := func(what string) {
		t.Helper()
		took, err := roundTrip()
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("%s: got %v, want the round trip to time out", what, err)
		}
		if took < timeout*7/8 || took > timeout+slack {
			t.Fatalf("%s: failed after %v, want between %v and %v", what, took, timeout*7/8, timeout+slack)
		}
	}

	for i := 0; i < busy; i++ {
		if _, err := roundTrip(); err != nil {
			t.Fatalf("busy round trip %d: %v", i, err)
		}
		time.Sleep(timeout / 16)
	}
	timesOut("the reply lost after the busy stretch")
	if _, err := roundTrip(); !errors.Is(err, ErrServerDown) {
		t.Fatalf("probe on a connection reset at its first reply: got %v, want a failure", err)
	}
	timesOut("the first reply lost on the redialled connection")
	if _, err := roundTrip(); err != nil {
		t.Fatalf("probe after the faults: %v", err)
	}
	for conn := 0; conn < 3; conn++ {
		if fired := plan.FiredOn(conn); len(fired) != 1 {
			t.Fatalf("connection %d: the plan fired %v, want its one fault", conn, fired)
		}
	}
}

// TestMalformedFrameGetsTypedError pins the server's malformed-frame
// behavior: a well-framed but undecodable payload gets a typed error
// reply (not a silent drop), the OnProtoError hook fires, and the
// connection stays usable for well-formed requests afterwards.
func TestMalformedFrameGetsTypedError(t *testing.T) {
	var mu sync.Mutex
	var hooked []error
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(ln, ServerConfig{
		OnProtoError: func(remote string, err error) {
			mu.Lock()
			hooked = append(hooked, err)
			mu.Unlock()
		},
	})
	defer srv.Close()

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := bufio.NewWriter(c)
	br := bufio.NewReader(c)
	roundTrip := func(payload []byte) ([]byte, error) {
		t.Helper()
		if err := writeFrame(bw, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		reply, _, err := readFrame(br, &buf)
		if err != nil {
			t.Fatalf("server dropped the connection instead of replying: %v", err)
		}
		return decodeResponse(reply)
	}

	var se *ServerError
	if _, err := roundTrip([]byte{99}); !errors.As(err, &se) || se.Code != ErrCodeUnknownOp {
		t.Fatalf("unknown op: got %v, want a ServerError with code unknown-op", err)
	}
	if _, err := roundTrip([]byte{opUpdate, 1, 2}); !errors.As(err, &se) || se.Code != ErrCodeMalformed {
		t.Fatalf("short update: got %v, want a ServerError with code malformed", err)
	}

	// The same connection still serves well-formed requests.
	ev := Event{User: 7, ID: 3, TS: 9}
	if _, err := roundTrip(encodeUpdate(nil, ev, []graph.NodeID{7})); err != nil {
		t.Fatalf("update after malformed frames: %v", err)
	}
	body, err := roundTrip(encodeQuery(nil, StreamSize, []graph.NodeID{7}))
	if err != nil {
		t.Fatalf("query after malformed frames: %v", err)
	}
	evs, err := decodeEvents(body, nil)
	if err != nil || len(evs) != 1 || evs[0] != ev {
		t.Fatalf("query reply = %v (%v), want the one update", evs, err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(hooked) != 2 {
		t.Fatalf("OnProtoError fired %d times, want 2: %v", len(hooked), hooked)
	}
}

// TestV2FrameGetsVersionMismatch: a v2 peer's frame (a 4-byte
// little-endian length, version 2, a 4-byte epoch, fixed-width fields)
// gets the typed error frame naming ErrVersionMismatch, the hook sees
// the mismatch, and the server then drops the connection: no v2 code
// path is left to serve it.
func TestV2FrameGetsVersionMismatch(t *testing.T) {
	var mu sync.Mutex
	var hooked []error
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(ln, ServerConfig{
		OnProtoError: func(remote string, err error) {
			mu.Lock()
			hooked = append(hooked, err)
			mu.Unlock()
		},
	})
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))

	// A v2 query for the newest StreamSize events of no view.
	v2 := []byte{14, 0, 0, 0, 2, 0, 0, 0, 0, opQuery, StreamSize, 0, 0, 0, 0, 0, 0, 0}
	if _, err := c.Write(v2); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	var buf []byte
	reply, _, err := readFrame(br, &buf)
	if err != nil {
		t.Fatalf("server dropped the connection without the error frame: %v", err)
	}
	var se *ServerError
	if _, err := decodeResponse(reply); !errors.As(err, &se) || se.Code != ErrCodeMalformed ||
		!strings.HasPrefix(se.Msg, ErrVersionMismatch.Error()) {
		t.Fatalf("v2 frame: got %v, want a malformed ServerError naming the version mismatch", err)
	}
	if _, _, err := readFrame(br, &buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after the error frame: got %v, want the connection closed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooked) != 1 || !errors.Is(hooked[0], ErrVersionMismatch) {
		t.Fatalf("OnProtoError saw %v, want the one version mismatch", hooked)
	}
}

// downTier is a one-server tier whose server has just died with its
// views saved, and a client that learns of it on its first failed call
// (no retries) and then probes on every call or on none.
func downTier(t *testing.T, probeEvery int) (cl *Client, addr string, saved map[graph.NodeID][]Event) {
	t.Helper()
	g, _ := figure2()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err = DialConfigured(baseline.PushAll(g), []string{srv.Addr()}, DialConfig{
		Timeout: 500 * time.Millisecond, Retries: -1, ProbeEvery: probeEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Update(0, Event{User: 0, ID: 1, TS: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	return cl, srv.Addr(), srv.Snapshot()
}

// TestParkedPayloadIsOwned: a parked update must be a copy of the frame,
// not the connection's encode buffer, which every later request through
// the same connection rewrites. Against a park that keeps the buffer,
// all three parked frames read as the last one and the views lose two
// events.
func TestParkedPayloadIsOwned(t *testing.T) {
	cl, addr, saved := downTier(t, 1<<30)
	var want [][]byte
	for i := int64(2); i <= 4; i++ {
		ev := Event{User: 0, ID: i, TS: i}
		if err := cl.Update(0, ev); err != nil {
			t.Fatalf("update %d against a down server: %v", i, err)
		}
		want = append(want, frameOf(0, encodeUpdate(nil, ev, cl.plan.Load().pushBatch[0][0].views)))
	}
	s := cl.conns[0]
	s.mu.Lock()
	parked := s.handoff
	s.mu.Unlock()
	if !reflect.DeepEqual(parked, want) {
		t.Fatalf("parked frames\n%x\nare not the three updates' frames\n%x", parked, want)
	}

	srv := restartServer(t, addr, saved)
	if still := cl.Recover(); still != 0 {
		t.Fatal("server still down after its restart")
	}
	srv.Close()
	for v, list := range srv.Snapshot() {
		if len(list) != 4 {
			t.Fatalf("view %d holds %v after the replay, want all four events", v, list)
		}
	}
	if st := cl.Stats(); st.Parked != 3 || st.Replayed != 3 {
		t.Fatalf("parked/replayed = %d/%d, want 3/3", st.Parked, st.Replayed)
	}
}

// TestProbeReplySurvivesHandoffReplay: in call the probe's reply is read
// before markUp replays the handoff through the same connection, and
// every replayed frame's reply lands in the buffer the probe's reply
// sits in. An ack covers only the bytes every reply starts with (version,
// epoch, status), so the replay here also carries a frame the server
// answers with a typed error, which is long enough to reach the events.
// Against a call that returns the aliased reply, the query decodes the
// error message as its first event.
func TestProbeReplySurvivesHandoffReplay(t *testing.T) {
	cl, addr, saved := downTier(t, 1<<30)
	for i := int64(2); i <= 3; i++ {
		if err := cl.Update(0, Event{User: 0, ID: i, TS: i}); err != nil {
			t.Fatalf("update %d against a down server: %v", i, err)
		}
	}
	if err := cl.park(0, frameOf(0, []byte{99})); err != nil {
		t.Fatal(err)
	}
	srv := restartServer(t, addr, saved)
	defer srv.Close()

	cl.cfg.ProbeEvery = 1 // the next call probes
	got, err := cl.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	// The probe ran before the replay, so it saw the first event only.
	if want := []Event{{User: 0, ID: 1, TS: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("probing query returned %v, want the probe's own reply %v", got, want)
	}
	if st := cl.Stats(); cl.ServerDown(0) || st.Replayed != 2 || st.HandoffDrops != 1 || st.ErrorFrames != 1 {
		t.Fatalf("after the probe: down=%v, %+v; want up, 2 replayed, the undecodable frame dropped", cl.ServerDown(0), st)
	}
	if got, err = cl.Query(2); err != nil || len(got) != 3 {
		t.Fatalf("query after the replay = %v, %v; want all three events", got, err)
	}
}
