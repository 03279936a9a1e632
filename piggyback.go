// Package piggyback is a library for computing and serving social-network
// request schedules with social piggybacking, reproducing "Piggybacking
// on Social Networks" (Gionis, Junqueira, Leroy, Serafini, Weber,
// PVLDB 6(6), 2013).
//
// A social graph edge u → v means v subscribes to u's events. A request
// schedule assigns every edge to a push set (updates materialize into the
// consumer's view), a pull set (queries read the producer's view), or
// covers it by piggybacking through a common contact's view (a hub). The
// library provides:
//
//   - the CHITCHAT O(ln n)-approximation (greedy set cover with a
//     weighted densest-subgraph oracle),
//   - the PARALLELNOSY parallel heuristic,
//   - the push-all / pull-all / hybrid (FEEDINGFRENZY) baselines,
//   - incremental schedule maintenance under graph churn,
//   - synthetic social-graph generators and log-degree workload models,
//   - a prototype view-store cluster that serves event streams under any
//     schedule and measures actual throughput, and
//   - harnesses regenerating every figure of the paper's evaluation.
//
// Every algorithm is exposed through one typed contract, the Solver
// interface: Solve(ctx, Problem) (*Result, error) with cooperative
// cancellation (canceled solves return the best-so-far valid schedule
// together with the context's error) and live progress streaming.
// Solvers are selected by name from a fixed table, so tools and services
// share a single code path.
//
// Quick start:
//
//	g := piggyback.TwitterLikeGraph(10000, 42)
//	r := piggyback.LogDegreeRates(g, 5) // read/write ratio 5
//	sv, _ := piggyback.NewSolver("nosy", piggyback.Options{})
//	res, err := sv.Solve(ctx, piggyback.Problem{Graph: g, Rates: r})
//	if err != nil && !errors.Is(err, context.Canceled) {
//		log.Fatal(err)
//	}
//	fmt.Printf("improvement: %.2fx\n", piggyback.HybridCost(g, r)/res.Report.Cost)
package piggyback

import (
	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/incremental"
	"piggyback/internal/netstore"
	"piggyback/internal/online"
	"piggyback/internal/partition"
	"piggyback/internal/refine"
	"piggyback/internal/sampling"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// Solver is the contract every scheduling algorithm implements:
// Solve(ctx, Problem) (*Result, error). The context is checked at
// iteration granularity; on cancellation Solve returns the best-so-far
// VALID schedule together with the context's error (anytime-solver
// semantics). See the internal/solver package comment for the full
// contract.
type Solver = solver.Solver

// Problem is one solve request: a Graph and its Rates.
type Problem = solver.Problem

// Result is a solver output: a Theorem-1-valid Schedule and the run
// Report.
type Result = solver.Result

// Report summarizes a finished (or canceled) solve: the solver name, its
// iteration count, the final cost and whether it was canceled.
type Report = solver.Report

// ProgressEvent is a live progress sample streamed to Options.Progress
// while a solve runs.
type ProgressEvent = solver.ProgressEvent

// Options tunes a solver built by NewSolver: workers, the shard count
// and the Progress callback.
type Options = solver.Options

// Typed errors returned by GraphBuilder.TryAddEdge and NewSolver.
var (
	// ErrEdgeOutOfRange: a graph edge referenced a node outside [0, n);
	// GraphBuilder.AddEdge panics with it.
	ErrEdgeOutOfRange = graph.ErrEdgeOutOfRange
	// ErrUnknownSolver: NewSolver knows no solver by the given name.
	ErrUnknownSolver = solver.ErrUnknownSolver
)

// NewSolver builds the named solver: the algorithms "chitchat", "nosy"
// and "shard" or the baselines "hybrid", "pushall" and "pullall". Any
// other name is an error wrapping ErrUnknownSolver.
func NewSolver(name string, opts Options) (Solver, error) { return solver.New(name, opts) }

// Solvers returns every solver name NewSolver accepts, sorted.
func Solvers() []string { return solver.Names() }

// NewChitChatSolver returns the CHITCHAT solver under its full typed
// config (knobs beyond Options: cross-edge bound, per-commit progress
// hook).
func NewChitChatSolver(cfg ChitChatConfig) Solver { return solver.NewChitChat(cfg) }

// ChitChatConfig tunes the CHITCHAT approximation algorithm.
type ChitChatConfig = chitchat.Config

// Graph is a directed social graph in CSR form; the edge u → v means v
// subscribes to u. Build one with NewGraphBuilder or GraphFromEdges.
type Graph = graph.Graph

// GraphBuilder accumulates edges before freezing them into a Graph.
type GraphBuilder = graph.Builder

// NodeID identifies a user (dense, 0-based).
type NodeID = graph.NodeID

// EdgeID identifies a directed edge (dense, 0-based).
type EdgeID = graph.EdgeID

// Edge is a directed subscription edge.
type Edge = graph.Edge

// Schedule is a request schedule: push set H, pull set L, and hub
// coverage, with the cost model and the Theorem-1 validity check.
type Schedule = core.Schedule

// Rates holds per-user production and consumption rates.
type Rates = workload.Rates

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a graph with n nodes from an edge list.
func GraphFromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// TwitterLikeGraph generates a synthetic social graph shaped like the
// paper's Twitter crawl: dense, low reciprocity, heavy degree skew.
func TwitterLikeGraph(nodes int, seed int64) *Graph {
	return graphgen.Social(graphgen.TwitterLike(nodes, seed))
}

// FlickrLikeGraph generates a synthetic social graph shaped like the
// paper's Flickr crawl: high reciprocity and clustering.
func FlickrLikeGraph(nodes int, seed int64) *Graph {
	return graphgen.Social(graphgen.FlickrLike(nodes, seed))
}

// SocialGraphConfig exposes the generator's knobs for custom shapes.
type SocialGraphConfig = graphgen.Config

// StreamSocialGraph generates a synthetic social graph in one pass with
// generator state O(nodes) instead of O(edges) (the graph builder still
// holds an 8 B/edge edge list) — the million-edge path (the RNG draw order
// differs from TwitterLikeGraph's and FlickrLikeGraph's, so the same
// config gives a distinct edge set). Pair with the "shard" solver to keep
// solve memory O(shard).
func StreamSocialGraph(cfg SocialGraphConfig) *Graph { return graphgen.StreamSocial(cfg) }

// FlickrLikeEdges sizes a Flickr-like config to hit a target edge count
// rather than a node count, for scale-targeted benchmarks.
func FlickrLikeEdges(edges int, seed int64) SocialGraphConfig {
	return graphgen.FlickrLikeEdges(edges, seed)
}

// LogDegreeRates derives the paper's synthetic workload: production ∝
// log followers, consumption ∝ log followees, rescaled to the given
// read/write ratio (the paper's reference value is 5).
func LogDegreeRates(g *Graph, readWriteRatio float64) *Rates {
	return workload.LogDegree(g, readWriteRatio)
}

// UniformRates gives every user production 1 and consumption ratio.
func UniformRates(n int, ratio float64) *Rates { return workload.NewUniform(n, ratio) }

// Hybrid returns the FEEDINGFRENZY baseline of Silberstein et al.: each
// edge served by the cheaper of push and pull.
func Hybrid(g *Graph, r *Rates) *Schedule { return baseline.Hybrid(g, r) }

// HybridCost returns the FEEDINGFRENZY cost without materializing the
// schedule; improvement ratios in the paper are relative to it.
func HybridCost(g *Graph, r *Rates) float64 { return baseline.HybridCost(g, r) }

// ImprovementRatio returns the predicted improvement of schedule s over
// the hybrid baseline: HybridCost / Cost(s). Values above 1 mean s wins.
func ImprovementRatio(s *Schedule, r *Rates) float64 {
	return baseline.HybridCost(s.Graph(), r) / s.Cost(r)
}

// RefineResult summarizes a free-coverage refinement sweep.
type RefineResult = refine.Result

// Refine post-processes a valid schedule in place, converting direct
// edges that are already bracketed by a push+pull hub path into free hub
// coverage. It never increases cost. Converged PARALLELNOSY schedules
// have nothing to recover; truncated runs and the hybrid baseline often
// do.
func Refine(s *Schedule, r *Rates) RefineResult { return refine.Pass(s, r, core.WalkSupports(s)) }

// Maintainer applies incremental graph updates (§3.3) to an optimized
// schedule without re-running the optimizer: new edges are covered for
// free through existing hubs when possible, rescued coverage migrates to
// alternative hubs, and the running Cost() is O(1).
type Maintainer = incremental.Maintainer

// NewMaintainer wraps an optimized schedule for incremental maintenance.
func NewMaintainer(s *Schedule, r *Rates) *Maintainer { return incremental.New(s, r) }

// Subgraph is a node-induced subgraph with its ID remapping, for
// localized re-optimization.
type Subgraph = graph.Subgraph

// InducedSubgraph extracts the subgraph induced by the given nodes with
// dense local IDs.
func InducedSubgraph(g *Graph, nodes []NodeID) *Subgraph { return graph.Induced(g, nodes) }

// KHopNeighborhood returns the nodes within k undirected hops of the
// seeds (sorted; maxNodes > 0 caps the result deterministically).
func KHopNeighborhood(g *Graph, seeds []NodeID, k, maxNodes int) []NodeID {
	return graph.KHop(g, seeds, k, maxNodes)
}

// ChurnOp is one graph/workload update in a churn stream.
type ChurnOp = workload.ChurnOp

// Churn op kinds.
const (
	OpAdd    = workload.OpAdd
	OpRemove = workload.OpRemove
	OpRates  = workload.OpRates
)

// ChurnConfig tunes the synthetic churn-trace generator.
type ChurnConfig = scenario.ChurnConfig

// GenerateChurn synthesizes a deterministic churn trace against the
// live edge set starting at g.
func GenerateChurn(g *Graph, r *Rates, n int, cfg ChurnConfig) []ChurnOp {
	return scenario.GenerateChurn(g, r, n, cfg)
}

// OnlineConfig tunes the online rescheduling daemon.
type OnlineConfig = online.Config

// OnlineDaemon ingests a churn stream, books per-node drift, and wins
// quality back with localized re-solves that run off the ingest path and
// are spliced into the live schedule at the next drift check; Flush
// splices the one in flight when the stream ends.
type OnlineDaemon = online.Daemon

// OnlineStats counts daemon activity (ops, rescues, re-solves, region
// sizes).
type OnlineStats = online.Stats

// NewOnlineDaemon starts an online rescheduling daemon from an
// optimized valid schedule. The rates are retained and mutated by
// rate-update ops.
func NewOnlineDaemon(s *Schedule, r *Rates, cfg OnlineConfig) (*OnlineDaemon, error) {
	return online.New(s, r, cfg)
}

// SampleResult is a sampled subgraph with its node mapping.
type SampleResult = sampling.Result

// RandomWalkSample extracts an induced subgraph via random walk with
// restarts until it holds at least targetEdges edges.
func RandomWalkSample(g *Graph, targetEdges int, seed int64) SampleResult {
	return sampling.RandomWalk(g, targetEdges, seed)
}

// BFSSample extracts an induced subgraph via breadth-first exploration.
func BFSSample(g *Graph, targetEdges int, seed int64) SampleResult {
	return sampling.BFS(g, targetEdges, seed)
}

// Assignment maps user views to data-store servers.
type Assignment = partition.Assignment

// HashPartition assigns views to servers by hashing user ids — the
// prototype's placement policy.
func HashPartition(nodes, servers int, seed int64) Assignment {
	return partition.Hash(nodes, servers, seed)
}

// PlacementCost returns the message cost of s under placement a, with
// same-server batching.
func PlacementCost(s *Schedule, r *Rates, a Assignment) float64 {
	return partition.Cost(s, r, a)
}

// NormalizedThroughput returns predicted throughput under placement,
// normalized so one server scores 1 (Figure 7's y axis).
func NormalizedThroughput(s *Schedule, r *Rates, a Assignment) float64 {
	return partition.NormalizedThroughput(s, r, a)
}

// Event is the prototype's 24-byte view tuple.
type Event = netstore.Event

// Cluster is the prototype data-store tier in process: netstore servers
// reached over in-memory pipes, serving batched view updates and queries
// under a schedule with the same protocol as the TCP tier.
type Cluster struct{ *netstore.Cluster }

// ClusterOptions configures a prototype cluster.
type ClusterOptions = netstore.ClusterOptions

// Client issues Algorithm-3 requests against a Cluster. A request error,
// which only a closed cluster causes, panics.
type Client struct{ cl *netstore.Client }

// NewCluster starts a prototype cluster executing schedule s.
func NewCluster(s *Schedule, opts ClusterOptions) (*Cluster, error) {
	c, err := netstore.NewCluster(s, opts)
	if err != nil {
		return nil, err
	}
	return &Cluster{c}, nil
}

// NewClient returns a client of the cluster; run one per goroutine, and
// Close it when done.
func (c *Cluster) NewClient() *Client { return &Client{c.Cluster.NewClient()} }

// Close releases the client's connections and helper goroutines. A
// later request opens them again.
func (c *Client) Close() { c.cl.Close() }

// Update shares event ev by user u (the update half of Algorithm 3).
func (c *Client) Update(u NodeID, ev Event) {
	if err := c.cl.Update(u, ev); err != nil {
		panic(err)
	}
}

// Query returns u's event stream, newest first (the query half).
func (c *Client) Query(u NodeID) []Event {
	evs, err := c.cl.Query(u)
	if err != nil {
		panic(err)
	}
	return evs
}

// Trace is a replayable request workload for throughput measurement.
type Trace = netstore.Trace

// GenerateTrace samples a request trace from the workload rates; it is
// empty when every rate is 0.
func GenerateTrace(r *Rates, n int, seed int64) Trace {
	return netstore.GenerateTrace(r, n, seed)
}

// BenchResult is a wall-clock throughput measurement.
type BenchResult = netstore.BenchResult

// MeasureThroughput replays a trace against a cluster with the given
// number of client goroutines and reports actual requests/second.
func MeasureThroughput(c *Cluster, t Trace, clients int) BenchResult {
	return netstore.MeasureThroughput(c.Cluster, t, clients)
}
