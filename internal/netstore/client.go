package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/partition"
	"piggyback/internal/telemetry"
)

// RequestTimeout bounds one server round-trip. The paper's prototype
// omits failure handling "for simplicity"; a real client must at least
// fail fast instead of hanging when a data-store server dies mid-request.
const RequestTimeout = 5 * time.Second

// Sentinel errors for the failure-handling paths.
var (
	// ErrServerDown wraps every operation error caused by a server the
	// client currently considers unreachable (retries exhausted).
	ErrServerDown = errors.New("netstore: server down")
	// ErrHandoffFull means a failed update could not be parked because
	// the per-server hinted-handoff buffer hit its cap — the one way a
	// server outage becomes a client-visible update failure.
	ErrHandoffFull = errors.New("netstore: hinted-handoff buffer full")
)

// handoffCap bounds each server's hinted-handoff buffer (parked updates
// awaiting replay).
const handoffCap = 4096

// DialConfig tunes the client's failure handling. The zero value uses
// every default; DialWithSeed sets only Seed.
type DialConfig struct {
	// Seed is both the partition seed (must match the seed used to
	// shard data across the servers) and the root of the deterministic
	// retry jitter: each server's backoff jitter stream is seeded by
	// Seed and the server index, so two runs with the same seed and the
	// same fault schedule produce byte-identical retry schedules.
	Seed int64
	// Timeout bounds one round-trip; 0 means RequestTimeout.
	Timeout time.Duration
	// BackoffBase/BackoffMax shape the capped exponential backoff
	// between retries: attempt k waits min(BackoffBase·2^(k-1),
	// BackoffMax) plus deterministic jitter in [0, wait/2). Defaults
	// 5ms / 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics, when non-nil, registers the client's counters and gauges
	// (netstore_client_*) in the given registry, so retries, handoff
	// traffic, bytes on wire, and per-server epoch observations surface
	// on /metrics. Client.Stats() works either way.
	Metrics *telemetry.Registry

	// The failure handling's knobs that only tests set.
	//
	// retries is how many times a failed round-trip is retried (with
	// backoff and a fresh connection) before the server is marked down;
	// 0 means 2, negative means none.
	retries int
	// probeEvery is how many operations that would touch a down server
	// pass between redial probes (the probe is attempt one of the next
	// operation); 0 means 8.
	probeEvery int
	// onRetry, when non-nil, observes every backoff sleep: the server
	// index, the attempt number (1-based), and the slept duration. The
	// per-server call sequence is deterministic for a fixed seed and
	// fault schedule. Called from request goroutines.
	onRetry func(server, attempt int, delay time.Duration)
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Timeout == 0 {
		cfg.Timeout = RequestTimeout
	}
	if cfg.retries == 0 {
		cfg.retries = 2
	}
	if cfg.retries < 0 {
		cfg.retries = 0
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.probeEvery == 0 {
		cfg.probeEvery = 8
	}
	return cfg
}

// ClientStats counts the client's failure handling and traffic so far.
type ClientStats struct {
	// Retries counts backoff-and-retry attempts; Redials counts fresh
	// connections dialed (including probe dials).
	Retries, Redials int
	// Parked / Replayed / HandoffDrops count hinted-handoff traffic:
	// updates parked while a server was down, parked updates replayed
	// after recovery, and parks refused because the buffer was full.
	Parked, Replayed, HandoffDrops int
	// DegradedQueries counts queries that fell back to pulling
	// producers' own views because a pull-set server was down.
	DegradedQueries int
	// DownEvents / UpEvents count server health transitions.
	DownEvents, UpEvents int
	// ErrorFrames counts typed error frames received from servers.
	ErrorFrames int
	// BytesRead / BytesWritten count wire traffic across every server
	// connection, including redials and handoff replay.
	BytesRead, BytesWritten int64
}

// Client is a schedule-driven application-logic client (Algorithm 3).
// It keeps one connection per data-store server and sends one batched
// message per server, waiting for all replies: the first batch's round
// trip runs on the calling goroutine and each further batch's on a
// long-lived helper goroutine, one per extra server a request has
// reached, fed by a channel, so the round trips overlap and a request
// starts no goroutine (DESIGN.md §17). Close stops the helpers; a
// request after Close starts them again. It routes by a plan it loads
// once per request; Swap publishes a new one.
//
// Failure handling (none of which the paper's prototype has): a failed
// round-trip is retried with capped exponential backoff on a FRESH
// connection — a timed-out connection is protocol-desynced and is never
// reused — and a server that exhausts its retries is marked down.
// While a server is down, updates park their frames in a bounded
// hinted-handoff buffer replayed on recovery, and queries degrade to
// pulling the producers' own views from healthy servers (the paper's
// pull-all floor: correct, costlier). Every eighth operation that would
// touch a down server probes it with a redial.
//
// A Client runs one request (Update or Query) at a time: the request in
// flight and every connection's buffers are the client's own state, so
// open one client per requesting goroutine. Swap, ServerDown, Recover,
// Stats and Close may be called from any goroutine at any time.
type Client struct {
	plan  *atomic.Pointer[plan] // a Cluster's clients share the Cluster's
	cfg   DialConfig
	conns []*sconn

	// The request in flight: its batches, whether it is an update and of
	// which event, and one error and one reply slot per batch.
	batches []batch
	update  bool
	ev      Event
	errs    []error
	replies [][]Event
	wg      sync.WaitGroup // the helpers' batches of the request in flight

	// crew is the running helpers, nil until a request needs one and
	// again after Close. hmu orders a dispatch's feeding against Close,
	// so a batch is only ever fed to a running helper.
	hmu  sync.Mutex
	crew *helpers

	// inst backs both Stats() and (when DialConfig.Metrics is set) the
	// /metrics exposition — one set of instruments, two readers.
	inst *clientInstruments
}

// helpers is one generation of a client's helper goroutines: feeds[i-1]
// hands batch i of a request to helper i, which runs until done is
// closed; wg waits for them to exit.
type helpers struct {
	feeds []chan int
	done  chan struct{}
	wg    sync.WaitGroup
}

// sconn is the client's per-server endpoint: how to reach the server,
// the live connection (nil while disconnected), health state,
// deterministic jitter stream, and the hinted-handoff buffer. All fields
// but wbuf and events are guarded by mu; a request holds the lock for
// the full call so per-server operations serialize.
type sconn struct {
	mu   sync.Mutex
	idx  int
	addr string
	dial func() (net.Conn, error)
	c    net.Conn
	br   *bufio.Reader
	// deadline is the deadline armed on c; zero while none is, which is
	// how every fresh connection starts.
	deadline time.Time

	down    bool
	downOps int        // ops refused since the last probe
	rng     *rand.Rand // jitter; seeded from cfg.Seed and the index
	handoff [][]byte   // parked update frames awaiting replay, each its own copy

	// Reused from request to request. wbuf (the frame sent) and events
	// (the decoded reply) belong to the goroutine running this server's
	// batch. rbuf is the frame read: call's reply aliases it until the
	// next round trip here, which only this client's next call starts
	// (Recover touches down servers only, and those have no live reply).
	wbuf, rbuf []byte
	events     []Event
}

// plan is the immutable routing state derived from one schedule: the
// per-user push and pull batches of Algorithm 3, the placement they were
// grouped by, and the graph the degraded query path reads in-neighbours
// from. A request finishes on the plan it loaded, so a swap only affects
// later requests — the paper's model of a schedule change.
type plan struct {
	g         *graph.Graph
	assign    partition.Assignment
	pushBatch [][]batch
	pullBatch [][]batch
}

type batch struct {
	server int
	views  []graph.NodeID
}

// newPlan groups every user's two view lists, its push set plus its own
// view (what an update writes) and its pull set plus its own (what a
// query reads), in two passes over the same lists: the first sizes the
// grouper's arenas exactly, the second cuts every list's batches from
// them.
func newPlan(s *core.Schedule, assign partition.Assignment) *plan {
	g := s.Graph()
	n := g.NumNodes()
	p := &plan{
		g:         g,
		assign:    assign,
		pushBatch: make([][]batch, n),
		pullBatch: make([][]batch, n),
	}
	deg := 0
	for u := 0; u < n; u++ {
		deg = max(deg, g.OutDegree(graph.NodeID(u)), g.InDegree(graph.NodeID(u)))
	}
	push, pull := make([]graph.NodeID, 0, deg+1), make([]graph.NodeID, 0, deg+1)
	lists := func(u graph.NodeID) {
		push = append(s.AppendPushSet(push[:0], u), u)
		pull = append(s.AppendPullSet(pull[:0], u), u)
	}
	gr := newGrouper(assign)
	views, batches := 0, 0
	for u := 0; u < n; u++ {
		lists(graph.NodeID(u))
		views += len(push) + len(pull)
		batches += gr.count(push) + gr.count(pull)
	}
	gr.views, gr.batches = make([]graph.NodeID, 0, views), make([]batch, 0, batches)
	for u := 0; u < n; u++ {
		lists(graph.NodeID(u))
		p.pushBatch[u], p.pullBatch[u] = gr.group(push), gr.group(pull)
	}
	return p
}

// grouper buckets view lists by hosting server with a counting sort: a
// list's batches come out in server order, each batch's views in list
// order. Its scratch is reused from list to list, and the batches and
// their views are cut from two arenas that grow only when a list does
// not fit (the batches cut earlier keep the arrays they were cut from).
type grouper struct {
	assign  partition.Assignment
	at      []int   // per server: the list's views there, then the next slot; zero between lists
	servers []int32 // the servers the list at hand touches
	views   []graph.NodeID
	batches []batch
}

func newGrouper(assign partition.Assignment) *grouper {
	return &grouper{assign: assign, at: make([]int, assign.Servers), servers: make([]int32, 0, assign.Servers)}
}

// tally counts list's views per server and lists the servers touched.
func (gr *grouper) tally(list []graph.NodeID) {
	gr.servers = gr.servers[:0]
	for _, v := range list {
		s := gr.assign.Of(v)
		if gr.at[s] == 0 {
			gr.servers = append(gr.servers, s)
		}
		gr.at[s]++
	}
}

// reset zeroes the per-server slots the list at hand used.
func (gr *grouper) reset() {
	for _, s := range gr.servers {
		gr.at[s] = 0
	}
}

// count returns how many batches list groups into.
func (gr *grouper) count(list []graph.NodeID) int {
	gr.tally(list)
	gr.reset()
	return len(gr.servers)
}

// group returns list's batches.
func (gr *grouper) group(list []graph.NodeID) []batch {
	gr.tally(list)
	slices.Sort(gr.servers)
	first, next := len(gr.batches), len(gr.views)
	gr.views = append(gr.views, list...) // the room; the views land below
	for _, s := range gr.servers {
		k := gr.at[s]
		gr.at[s] = next
		gr.batches = append(gr.batches, batch{server: int(s), views: gr.views[next : next+k : next+k]})
		next += k
	}
	for _, v := range list {
		s := gr.assign.Of(v)
		gr.views[gr.at[s]] = v
		gr.at[s]++
	}
	gr.reset()
	return gr.batches[first:len(gr.batches):len(gr.batches)]
}

// swapPlan publishes the plan of s in ptr. The schedule may be over a
// different (churned) graph as long as the node-id space is unchanged —
// views are keyed by node id, so served history carries over.
func swapPlan(ptr *atomic.Pointer[plan], s *core.Schedule) error {
	old := ptr.Load()
	if got, want := s.Graph().NumNodes(), old.g.NumNodes(); got != want {
		return fmt.Errorf("netstore: swap schedule has %d nodes, the plan has %d", got, want)
	}
	ptr.Store(newPlan(s, old.assign))
	return nil
}

// DialWithSeed is DialConfigured with only a partition seed (must match
// the seed used to shard data across the servers).
func DialWithSeed(s *core.Schedule, addrs []string, seed int64) (*Client, error) {
	return DialConfigured(s, addrs, DialConfig{Seed: seed})
}

// DialConfigured connects to the given data-store servers over TCP and
// precomputes per-user batches from the schedule; addrs[i] hosts the
// views that the hash assignment maps to server i. Every server must be
// reachable at dial time; failure handling covers servers that die
// later.
func DialConfigured(s *core.Schedule, addrs []string, cfg DialConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netstore: no servers")
	}
	cfg = cfg.withDefaults()
	p := new(atomic.Pointer[plan])
	p.Store(newPlan(s, partition.Hash(s.Graph().NumNodes(), len(addrs), cfg.Seed)))
	dials := make([]func() (net.Conn, error), len(addrs))
	for i := range addrs {
		addr := addrs[i]
		dials[i] = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, cfg.Timeout) }
	}
	cl := newClient(p, addrs, dials, cfg)
	for _, sc := range cl.conns {
		if err := cl.redial(sc); err != nil {
			cl.Close()
			return nil, fmt.Errorf("netstore: dialing %s: %w", sc.addr, err)
		}
	}
	return cl, nil
}

// newClient returns a client routing by p that reaches server i as
// addrs[i] through dials[i]. It dials nothing: a connection is made by
// the first call that needs it.
func newClient(p *atomic.Pointer[plan], addrs []string, dials []func() (net.Conn, error), cfg DialConfig) *Client {
	cl := &Client{
		plan:    p,
		cfg:     cfg,
		inst:    newClientInstruments(cfg.Metrics, len(addrs)),
		errs:    make([]error, len(addrs)),
		replies: make([][]Event, len(addrs)),
	}
	for i, addr := range addrs {
		cl.conns = append(cl.conns, &sconn{
			idx:  i,
			addr: addr,
			dial: dials[i],
			rng:  rand.New(rand.NewSource(cfg.Seed*7919 + int64(i))),
		})
	}
	return cl
}

// Swap publishes a new schedule: every later request routes by it, while
// a request in flight completes on the old plan. The schedule must be
// over the same node-id space. A client a Cluster handed out shares the
// Cluster's plan, so this swaps it for all of them.
func (cl *Client) Swap(s *core.Schedule) error { return swapPlan(cl.plan, s) }

// Close stops the helpers, waits for them to exit, and tears down all
// connections; a request in flight finishes first on each helper and
// connection it holds. Parked handoff entries are discarded. The client
// stays usable: a later request dials again and starts new helpers.
func (cl *Client) Close() {
	cl.hmu.Lock()
	h := cl.crew
	cl.crew = nil
	cl.hmu.Unlock()
	if h != nil {
		close(h.done)
		h.wg.Wait()
	}
	for _, s := range cl.conns {
		s.mu.Lock()
		s.closeConn()
		s.mu.Unlock()
	}
}

// Stats returns a copy of the failure-handling and traffic counters.
func (cl *Client) Stats() ClientStats {
	return ClientStats{
		Retries:         int(cl.inst.retries.Value()),
		Redials:         int(cl.inst.redials.Value()),
		Parked:          int(cl.inst.parked.Value()),
		Replayed:        int(cl.inst.replayed.Value()),
		HandoffDrops:    int(cl.inst.drops.Value()),
		DegradedQueries: int(cl.inst.degraded.Value()),
		DownEvents:      int(cl.inst.downs.Value()),
		UpEvents:        int(cl.inst.ups.Value()),
		ErrorFrames:     int(cl.inst.errorFrames.Value()),
		BytesRead:       cl.inst.bytesRead.Value(),
		BytesWritten:    cl.inst.bytesWritten.Value(),
	}
}

// ServerDown reports whether the client currently considers server i
// unreachable.
func (cl *Client) ServerDown(i int) bool {
	s := cl.conns[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// redial replaces s.c with a fresh connection. Caller holds s.mu (or
// owns s exclusively, as during dial).
func (cl *Client) redial(s *sconn) error {
	s.closeConn()
	cl.inst.redials.Inc()
	c, err := s.dial()
	if err != nil {
		return err
	}
	s.c = countingConn{Conn: c, r: cl.inst.bytesRead, w: cl.inst.bytesWritten}
	s.br = bufio.NewReader(s.c)
	return nil
}

// closeConn drops the current connection, if any, and with it its
// armed deadline. Caller holds s.mu.
func (s *sconn) closeConn() {
	if s.c != nil {
		s.c.Close()
		s.c, s.br, s.deadline = nil, nil, time.Time{}
	}
}

// rearm reports whether a connection whose deadline is armed (zero: none
// is) must be re-armed at now to grant a round trip span: only once less
// than ⅞ of span is left (DESIGN.md §11). A round trip is still granted
// at least ⅞ of span and never more than all of it, and a busy
// connection touches the runtime's timers about eight times per span
// instead of once per message.
func rearm(armed, now time.Time, span time.Duration) bool {
	return armed.Sub(now) < span-span/8
}

// roundTripOnce sends one sealed frame and reads the reply (in s.rbuf)
// on the current connection. Caller holds s.mu and guarantees s.c !=
// nil. Any error — timeout, partial read, reset — means the
// length-prefixed stream can no longer be trusted; the CALLER must
// discard the connection.
func (cl *Client) roundTripOnce(s *sconn, frame []byte) ([]byte, error) {
	if now := time.Now(); rearm(s.deadline, now, cl.cfg.Timeout) {
		s.deadline = now.Add(cl.cfg.Timeout)
		if err := s.c.SetDeadline(s.deadline); err != nil {
			return nil, err
		}
	}
	if _, err := s.c.Write(frame); err != nil {
		return nil, err
	}
	reply, epoch, err := readFrame(s.br, &s.rbuf)
	if err != nil {
		return nil, err
	}
	cl.inst.epochs[s.idx].Set(float64(epoch))
	return decodeResponse(reply)
}

// backoff returns the deterministic jittered wait before retry attempt
// k (1-based). Caller holds s.mu, so the per-server jitter stream is
// consumed in a deterministic order.
func (cl *Client) backoff(s *sconn, attempt int) time.Duration {
	d := cl.cfg.BackoffBase << uint(attempt-1)
	if d > cl.cfg.BackoffMax || d <= 0 {
		d = cl.cfg.BackoffMax
	}
	return d + time.Duration(s.rng.Int63n(int64(d/2)+1))
}

// call performs one request against server si with the full failure
// discipline: retry with backoff on fresh connections, down-marking,
// probe-gated recovery, and handoff replay after a probe succeeds.
// frame is sealed; the reply body is in s.rbuf.
func (cl *Client) call(si int, frame []byte) ([]byte, error) {
	s := cl.conns[si]
	s.mu.Lock()
	defer s.mu.Unlock()

	attempts := cl.cfg.retries + 1
	if s.down {
		// While down, most operations fail fast; every probeEvery-th
		// one becomes a single-attempt probe.
		s.downOps++
		if s.downOps%cl.cfg.probeEvery != 0 {
			return nil, fmt.Errorf("netstore: server %d (%s): %w", si, s.addr, ErrServerDown)
		}
		attempts = 1
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := cl.backoff(s, attempt)
			cl.inst.retries.Inc()
			cl.inst.backoffSleep.Add(d.Seconds())
			if cl.cfg.onRetry != nil {
				cl.cfg.onRetry(si, attempt, d)
			}
			time.Sleep(d)
		}
		if s.c == nil {
			if err := cl.redial(s); err != nil {
				lastErr = err
				continue
			}
		}
		reply, err := cl.roundTripOnce(s, frame)
		if err == nil {
			if s.down {
				// The replay's acks land in the buffer this reply is in.
				reply = append([]byte(nil), reply...)
				cl.markUp(si, s)
			}
			return reply, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			// A typed error frame is a complete, well-framed reply: the
			// stream is intact and the rejection is deterministic, so
			// neither redial nor retry applies.
			cl.inst.errorFrames.Inc()
			if s.down {
				cl.markUp(si, s)
			}
			return nil, err
		}
		lastErr = err
		// Transport-level failure: the stream may be desynced mid-frame,
		// so the connection is never reused.
		s.closeConn()
	}
	cl.markDownLocked(si, s)
	return nil, fmt.Errorf("netstore: server %d (%s): %w: %v", si, s.addr, ErrServerDown, lastErr)
}

// markUp transitions a down server to healthy and replays its hinted
// handoff. Caller holds s.mu. If replay fails partway, the remainder
// stays parked and the server goes back down.
func (cl *Client) markUp(si int, s *sconn) {
	s.down = false
	s.downOps = 0
	cl.inst.ups.Inc()
	for len(s.handoff) > 0 {
		frame := s.handoff[0]
		if s.c == nil {
			if err := cl.redial(s); err != nil {
				cl.markDownLocked(si, s)
				return
			}
		}
		if _, err := cl.roundTripOnce(s, frame); err != nil {
			var se *ServerError
			if errors.As(err, &se) {
				// Deterministic rejection: replaying it again can never
				// succeed, so drop it rather than wedge the buffer.
				cl.inst.errorFrames.Inc()
				cl.inst.drops.Inc()
				s.handoff = s.handoff[1:]
				cl.inst.handoffDepth.Add(-1)
				continue
			}
			s.closeConn()
			cl.markDownLocked(si, s)
			return
		}
		s.handoff = s.handoff[1:]
		cl.inst.replayed.Inc()
		cl.inst.handoffDepth.Add(-1)
	}
	s.handoff = nil
}

// markDownLocked records a down transition. Caller holds s.mu.
func (cl *Client) markDownLocked(si int, s *sconn) {
	if s.down {
		return
	}
	s.down = true
	s.downOps = 0
	cl.inst.downs.Inc()
}

// park stores a copy of a failed update's frame (the original is the
// connection's encode buffer) in server si's hinted-handoff buffer for
// replay on recovery.
func (cl *Client) park(si int, frame []byte) error {
	s := cl.conns[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.handoff) >= handoffCap {
		cl.inst.drops.Inc()
		return fmt.Errorf("netstore: server %d: %w (%d parked)", si, ErrHandoffFull, len(s.handoff))
	}
	s.handoff = append(s.handoff, append([]byte(nil), frame...))
	cl.inst.parked.Inc()
	cl.inst.handoffDepth.Add(1)
	return nil
}

// Recover probes every down server immediately (ignoring the
// probeEvery spacing) and replays its hinted handoff on success. It
// returns the number of servers still down afterwards. Useful after an
// orchestrated restart; normal operation recovers on its own through
// probe-gated calls.
func (cl *Client) Recover() int {
	stillDown := 0
	for si, s := range cl.conns {
		s.mu.Lock()
		if s.down {
			if err := cl.redial(s); err != nil {
				stillDown++
				s.mu.Unlock()
				continue
			}
			cl.markUp(si, s)
			if s.down {
				stillDown++
			}
		}
		s.mu.Unlock()
	}
	return stillDown
}

// Update shares an event by u: one update message per server holding a
// view in u's push set (plus u's own view), all acked. When a server is
// down, its share of the update is parked in the hinted-handoff buffer
// and replayed on recovery — the update succeeds from the caller's
// point of view and converges once the server returns. Only a full
// handoff buffer (or a non-transport server rejection) surfaces as an
// error.
func (cl *Client) Update(u graph.NodeID, ev Event) error {
	cl.dispatch(cl.plan.Load().pushBatch[u], true, ev)
	for _, err := range cl.errs[:len(cl.batches)] {
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatch runs every batch of one request and returns when all have
// finished: batch 0 on the calling goroutine, each further batch i on
// helper i, so that its round trip overlaps the caller's. A helper is
// started the first time a request needs it and kept.
func (cl *Client) dispatch(batches []batch, update bool, ev Event) {
	cl.batches, cl.update, cl.ev = batches, update, ev
	if len(batches) > 1 {
		cl.wg.Add(len(batches) - 1)
		cl.hmu.Lock()
		if cl.crew == nil {
			cl.crew = &helpers{done: make(chan struct{})}
		}
		h := cl.crew
		for i := 1; i < len(batches); i++ {
			if len(h.feeds) < i {
				feed := make(chan int, 1)
				h.feeds = append(h.feeds, feed)
				h.wg.Add(1)
				go cl.help(feed, h)
			}
			h.feeds[i-1] <- i // never blocks: the last batch fed was taken before its wg.Done
		}
		cl.hmu.Unlock()
	}
	cl.runBatch(0)
	cl.wg.Wait()
}

// help runs the batches fed to it until h.done is closed. Close takes h
// from the client under hmu before it closes h.done, so a batch fed to
// h is in the feed by then and still runs: its dispatch waits for it.
func (cl *Client) help(feed <-chan int, h *helpers) {
	defer h.wg.Done()
	for {
		select {
		case i := <-feed:
			cl.runBatch(i)
			cl.wg.Done()
		case <-h.done:
			if len(feed) == 0 {
				return
			}
		}
	}
}

// runBatch performs batch i of the request in flight and fills its
// error and reply slots.
func (cl *Client) runBatch(i int) {
	b := cl.batches[i]
	if !cl.update {
		cl.replies[i], cl.errs[i] = cl.queryBatch(b)
		return
	}
	s := cl.conns[b.server]
	s.wbuf = encodeUpdate(newFrame(s.wbuf), cl.ev, b.views)
	frame, err := sealFrame(s.wbuf, 0)
	if err == nil {
		if _, err = cl.call(b.server, frame); errors.Is(err, ErrServerDown) {
			err = cl.park(b.server, frame)
		}
	}
	cl.errs[i] = err
}

// queryBatch asks b's server for the newest events of b's views; the
// result is that connection's scratch, good until its next call.
func (cl *Client) queryBatch(b batch) ([]Event, error) {
	s := cl.conns[b.server]
	s.wbuf = encodeQuery(newFrame(s.wbuf), StreamSize, b.views)
	frame, err := sealFrame(s.wbuf, 0)
	if err != nil {
		return nil, err
	}
	body, err := cl.call(b.server, frame)
	if err != nil {
		return nil, err
	}
	s.events, err = decodeEvents(body, s.events)
	return s.events, err
}

// Query assembles u's event stream: one query per server holding a view
// in u's pull set (plus u's own), replies merged to the ten newest.
//
// When a pull-set server is down, the query degrades instead of
// failing: the missing views are reconstructed by pulling the OWN views
// of u and all of u's in-neighbors from whatever servers are healthy —
// the paper's pull-all floor. Every event reaches its producer's own
// view on the producer's update path, so the fallback is correct; it
// is just costlier (one batch per server hosting any followed
// producer) and can miss events parked for servers that are still
// down. Results from the degraded path are exact-duplicate-deduped,
// since hub views and own views overlap.
func (cl *Client) Query(u graph.NodeID) ([]Event, error) {
	p := cl.plan.Load()
	cl.dispatch(p.pullBatch[u], false, Event{})
	errs, replies := cl.errs[:len(cl.batches)], cl.replies[:len(cl.batches)]

	degraded := false
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrServerDown) {
			degraded = true
			continue
		}
		return nil, err
	}
	if !degraded {
		return mergeNewest(make([]Event, 0, StreamSize), replies, StreamSize), nil
	}

	cl.inst.degraded.Inc()
	// Copied before the fallback's calls reuse the connections' scratch.
	all := make([]Event, 0, StreamSize*(len(replies)+1))
	for _, evs := range replies {
		all = append(all, evs...) // failed batches contribute nil
	}
	// The pull-all floor: the own views of u and every in-neighbour.
	for _, b := range newGrouper(p.assign).group(append([]graph.NodeID{u}, p.g.InNeighbors(u)...)) {
		if cl.ServerDown(b.server) {
			continue // that producer's recent events are unreachable for now
		}
		evs, err := cl.queryBatch(b)
		if err != nil {
			continue // best effort: degrade further rather than fail
		}
		all = append(all, evs...)
	}
	return dedupeNewest(all, StreamSize), nil
}

// dedupeNewest sorts events newest-first, removes exact duplicates, and
// trims to k — the merge step of the degraded query path, where the
// same event can arrive from both a hub view and its producer's own
// view.
func dedupeNewest(evs []Event, k int) []Event {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TS != b.TS {
			return a.TS > b.TS
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return a.ID < b.ID
	})
	out := evs[:0]
	for i, ev := range evs {
		if i > 0 && ev == evs[i-1] {
			continue
		}
		out = append(out, ev)
		if len(out) == k {
			break
		}
	}
	return out
}
