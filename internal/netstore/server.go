package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/graph"
	"piggyback/internal/telemetry"
)

// DefaultIdleTimeout is how long a connection may sit with no complete
// frame before the server drops it — dead clients must not pin handler
// goroutines forever.
const DefaultIdleTimeout = 2 * time.Minute

// ServerConfig tunes a Server. The zero value uses every default.
type ServerConfig struct {
	// OnProtoError, when non-nil, is called for every malformed request
	// (before the typed error frame goes out) and for frame-level
	// failures that drop a connection — the hook that makes protocol
	// bugs visible instead of looking like network flakes. Called from
	// handler goroutines; must be safe for concurrent use.
	OnProtoError func(remote string, err error)
	// Views seeds the server with existing view state — the restart
	// path: a server that comes back after a crash with its durable
	// views intact (the chaos tests model a persistent tier; the
	// paper's memcached tier would come back empty). The map is copied.
	Views map[graph.NodeID][]Event
	// Metrics, when non-nil, registers the server's counters
	// (netstore_server_*) in the given registry; MetricsLabel
	// distinguishes servers sharing one registry (typically the server
	// index). Server.Stats() works either way.
	Metrics      *telemetry.Registry
	MetricsLabel string
}

// ServerStats counts one server's connections and traffic so far.
type ServerStats struct {
	// Conns counts connections accepted over the server's lifetime;
	// ActiveConns is how many are currently open.
	Conns, ActiveConns int
	// BytesRead / BytesWritten count wire traffic across every
	// connection; Frames counts complete request frames decoded.
	BytesRead, BytesWritten int64
	Frames                  int64
	// ProtoErrors counts malformed requests and frame-level failures —
	// everything routed through ServerConfig.OnProtoError.
	ProtoErrors int
}

// Server is one data-store server holding user views. It serves many
// connections concurrently — over TCP, or over an in-memory listener in
// a Cluster — so views live in a sharded, mutex-protected container, the
// same shape as a memcached slab tier.
type Server struct {
	ln     net.Listener
	cfg    ServerConfig
	inst   *serverInstruments
	shards [viewShards]viewShard
	wg     sync.WaitGroup

	// epoch is the plan epoch stamped on every response frame — the
	// rollout observation hook. SetEpoch publishes a new one atomically.
	epoch atomic.Uint32

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

const viewShards = 64

type viewShard struct {
	mu    sync.Mutex
	views map[graph.NodeID][]Event
}

// NewServer starts a server listening on addr (use "127.0.0.1:0" for an
// ephemeral test port) with the default configuration.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerOn(ln, ServerConfig{}), nil
}

// NewServerOn starts a server with explicit configuration on an existing
// listener — also the seam that lets tests interpose a fault-injecting
// listener between the server and its clients.
func NewServerOn(ln net.Listener, cfg ServerConfig) *Server {
	s := &Server{
		ln:    ln,
		cfg:   cfg,
		inst:  newServerInstruments(cfg.Metrics, cfg.MetricsLabel),
		conns: make(map[net.Conn]struct{}),
	}
	for i := range s.shards {
		s.shards[i].views = make(map[graph.NodeID][]Event)
	}
	for v, list := range cfg.Views {
		sh := s.shard(v)
		sh.views[v] = append([]Event(nil), list...)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetEpoch publishes the plan epoch stamped on subsequent responses.
func (s *Server) SetEpoch(e uint32) {
	s.epoch.Store(e)
	s.inst.epoch.Set(float64(e))
}

// Stats returns a copy of the connection and traffic counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		Conns:        int(s.inst.conns.Value()),
		ActiveConns:  active,
		BytesRead:    s.inst.bytesRead.Value(),
		BytesWritten: s.inst.bytesWritten.Value(),
		Frames:       s.inst.frames.Value(),
		ProtoErrors:  int(s.inst.protoErrors.Value()),
	}
}

// Epoch returns the currently published plan epoch.
func (s *Server) Epoch() uint32 { return s.epoch.Load() }

// Close stops accepting, closes live connections, and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// closing reports whether Close has begun; it sets the flag before it
// closes any connection.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Snapshot copies out every view — the durable state a restarted server
// would reload (ServerConfig.Views). Call after Close for a consistent
// image, or any time for a best-effort one.
func (s *Server) Snapshot() map[graph.NodeID][]Event {
	out := make(map[graph.NodeID][]Event)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for v, list := range sh.views {
			out[v] = append([]Event(nil), list...)
		}
		sh.mu.Unlock()
	}
	return out
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.inst.conns.Inc()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) protoError(conn net.Conn, err error) {
	s.inst.protoErrors.Inc()
	if s.cfg.OnProtoError != nil {
		s.cfg.OnProtoError(conn.RemoteAddr().String(), err)
	}
}

// connScratch is what one server connection owns and reuses from frame
// to frame: the frame read and the frame written, the decoded view list,
// and the query merge's copied heads, its cursors into them and its
// result. Nothing in it outlives the request that filled it.
type connScratch struct {
	rbuf, wbuf []byte
	views      []graph.NodeID
	heads, out []Event
	curs       [][]Event
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// Byte accounting wraps the raw conn UNDER the read buffering, so the
	// counters see exactly what crosses the wire.
	cc := countingConn{Conn: conn, r: s.inst.bytesRead, w: s.inst.bytesWritten}
	br := bufio.NewReader(cc)
	var c connScratch
	reply := func() bool {
		if sealFrame(c.wbuf, s.epoch.Load()) != nil {
			return false
		}
		_, err := cc.Write(c.wbuf)
		return err == nil
	}
	for {
		conn.SetReadDeadline(time.Now().Add(DefaultIdleTimeout))
		payload, _, err := readFrame(br, &c.rbuf)
		if err != nil {
			// Frame-level failure: the stream position is untrustworthy,
			// so the connection must die — but not silently. EOF is a
			// clean hangup, and so is whatever the read returns once
			// Close has begun (net.ErrClosed from Close closing this
			// connection, or a reset from a peer leaving at the same
			// moment): which of the two sides' hang-ups the handler sees
			// first is goroutine timing, not protocol. Everything else
			// goes through the hook, and a version mismatch gets a
			// best-effort parting error frame before the drop.
			if !errors.Is(err, io.EOF) && !s.closing() {
				s.protoError(conn, err)
			}
			if errors.Is(err, ErrVersionMismatch) {
				c.wbuf = append(newFrame(c.wbuf), errResponse(ErrCodeMalformed, err.Error())...)
				reply()
			}
			return
		}
		s.inst.frames.Inc()
		op, ev, k, views, err := decodeRequest(payload, c.views)
		c.views, c.wbuf = views, newFrame(c.wbuf)
		switch {
		case err != nil:
			// Payload-level failure: the framing is intact, so reply with
			// a typed error frame and keep serving — dropping the
			// connection here made every client-side encoding bug look
			// like a network flake.
			s.protoError(conn, err)
			code := ErrCodeMalformed
			if errors.Is(err, errUnknownOp) {
				code = ErrCodeUnknownOp
			}
			c.wbuf = append(c.wbuf, errResponse(code, err.Error())...)
		case op == opUpdate:
			for _, v := range views {
				s.insert(v, ev)
			}
			c.wbuf = append(c.wbuf, statusOK)
		case op == opQuery:
			c.wbuf = encodeEvents(append(c.wbuf, statusOK), s.query(&c, views, k))
		}
		if !reply() {
			return
		}
	}
}

func (s *Server) shard(v graph.NodeID) *viewShard {
	return &s.shards[uint32(v)%viewShards]
}

// insert adds ev to view v, keeping newest-first order and the cap.
// The insert is idempotent on the exact event tuple: a client that
// timed out after the server applied its update retries the identical
// frame, and a second application would diverge the view from a
// fault-free run.
func (s *Server) insert(v graph.NodeID, ev Event) {
	sh := s.shard(v)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.views[v]
	i := sort.Search(len(list), func(i int) bool { return list[i].TS <= ev.TS })
	for j := i; j < len(list) && list[j].TS == ev.TS; j++ {
		if list[j] == ev {
			return // duplicate delivery (retry after lost ack)
		}
	}
	list = append(list, Event{})
	copy(list[i+1:], list[i:])
	list[i] = ev
	if len(list) > ViewCap {
		list = list[:ViewCap]
	}
	sh.views[v] = list
}

// mergeFanIn bounds the views one merge round takes, so a query's
// scratch is at most (mergeFanIn+1)·ViewCap events however many views
// its frame names.
const mergeFanIn = 64

// query returns the k newest events across views, in c's scratch: each
// view's head is copied under its shard's lock, one lock at a time, and
// one k-bounded merge runs over the copies once no lock is held.
func (s *Server) query(c *connScratch, views []graph.NodeID, k int) []Event {
	if k <= 0 || k > ViewCap {
		k = StreamSize
	}
	c.out = c.out[:0]
	for len(views) > 0 {
		round := views[:min(len(views), mergeFanIn)]
		views = views[len(round):]
		if need := (len(round) + 1) * k; cap(c.heads) < need {
			c.heads = make([]Event, 0, need) // the cursors alias it: no regrowth below
		}
		// The result so far is cursor 0, so ties still go to earlier views.
		c.heads = append(c.heads[:0], c.out...)
		c.curs = append(c.curs[:0], c.heads)
		for _, v := range round {
			sh := s.shard(v)
			sh.mu.Lock()
			head := sh.views[v]
			head = head[:min(len(head), k)]
			c.heads = append(c.heads, head...)
			sh.mu.Unlock()
			c.curs = append(c.curs, c.heads[len(c.heads)-len(head):])
		}
		c.out = mergeNewest(c.out[:0], c.curs, k)
	}
	return c.out
}

// errUnknownOp lets the handler map decode failures to the right error
// code without string matching.
var errUnknownOp = errors.New("netstore: unknown op")

func unknownOpError(op byte) error {
	return fmt.Errorf("%w %d", errUnknownOp, op)
}
