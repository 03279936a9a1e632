package netstore

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/partition"
)

// ClusterOptions configures a Cluster.
type ClusterOptions struct {
	// Servers is the number of data-store servers.
	Servers int
	// PartitionSeed varies the hash placement of views.
	PartitionSeed int64

	// wrap is the test seam for fault injection: when non-nil, each
	// server listens on wrap(its in-memory listener).
	wrap func(net.Listener) net.Listener
}

// Cluster is the in-process data-store tier: Servers servers, each on an
// in-memory listener, plus the request plan every client it hands out
// routes by. Clients speak the wire protocol over net.Pipe connections,
// exactly as they would over TCP. Swap publishes a new plan while
// clients keep issuing requests.
type Cluster struct {
	servers []*Server
	addrs   []string
	dials   []func() (net.Conn, error)
	seed    int64

	// plan is shared with every client: Swap stores into it, and each
	// request loads it once.
	plan atomic.Pointer[plan]
}

// NewCluster starts the servers and builds the plan of schedule s.
func NewCluster(s *core.Schedule, opts ClusterOptions) (*Cluster, error) {
	if opts.Servers < 1 {
		return nil, fmt.Errorf("netstore: need at least one server, got %d", opts.Servers)
	}
	c := &Cluster{seed: opts.PartitionSeed}
	for i := 0; i < opts.Servers; i++ {
		ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		var sln net.Listener = ln
		if opts.wrap != nil {
			sln = opts.wrap(ln)
		}
		c.servers = append(c.servers, NewServerOn(sln, ServerConfig{}))
		c.addrs = append(c.addrs, fmt.Sprintf("pipe:%d", i))
		c.dials = append(c.dials, ln.dial)
	}
	c.plan.Store(newPlan(s, partition.Hash(s.Graph().NumNodes(), opts.Servers, opts.PartitionSeed)))
	return c, nil
}

// Swap publishes a new schedule to every client of the cluster; requests
// already in flight complete on the old plan. The schedule may be over a
// different (churned) graph with the same node-id space. This is the
// serving half of the online rescheduling loop: the daemon's accepted
// splices go live here without draining the cluster.
func (c *Cluster) Swap(s *core.Schedule) error { return swapPlan(&c.plan, s) }

// NewClient returns a client of the cluster. It connects to a server on
// its first request there. A client runs one request at a time.
func (c *Cluster) NewClient() *Client {
	return newClient(&c.plan, c.addrs, c.dials, DialConfig{Seed: c.seed}.withDefaults())
}

// Close shuts every server down and drops its connections.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
}

// MessagesPerUpdate returns how many server messages an update by u costs.
func (c *Cluster) MessagesPerUpdate(u graph.NodeID) int { return len(c.plan.Load().pushBatch[u]) }

// MessagesPerQuery returns how many server messages a query by u costs.
func (c *Cluster) MessagesPerQuery(u graph.NodeID) int { return len(c.plan.Load().pullBatch[u]) }

// pipeListener is an in-memory net.Listener: dial hands Accept one end
// of a net.Pipe and returns the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
