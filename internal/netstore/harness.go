package netstore

import (
	"math/rand"
	"sync"
	"time"

	"piggyback/internal/graph"
	"piggyback/internal/stats"
	"piggyback/internal/workload"
)

// Request is one workload item: an update or a query by a user.
type Request struct {
	User     graph.NodeID
	IsUpdate bool
}

// Trace is a replayable request sequence.
type Trace []Request

// GenerateTrace samples n requests from the workload: a request is an
// update with probability Σrp/(Σrp+Σrc), and the issuing user is drawn
// proportionally to their production (resp. consumption) rate —
// consistent with the cost model, where rates are request frequencies.
func GenerateTrace(r *workload.Rates, n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	prodCum := cumulative(r.Prod)
	consCum := cumulative(r.Cons)
	var sumP, sumC float64
	if len(prodCum) > 0 {
		sumP = prodCum[len(prodCum)-1]
		sumC = consCum[len(consCum)-1]
	}
	out := make(Trace, n)
	for i := range out {
		if rng.Float64()*(sumP+sumC) < sumP {
			out[i] = Request{User: draw(prodCum, rng), IsUpdate: true}
		} else {
			out[i] = Request{User: draw(consCum, rng)}
		}
	}
	return out
}

func cumulative(w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for i, x := range w {
		sum += x
		out[i] = sum
	}
	return out
}

func draw(cum []float64, rng *rand.Rand) graph.NodeID {
	x := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return graph.NodeID(lo)
}

// BenchResult reports one throughput measurement. Latency percentiles
// cover individual request round-trips; the paper notes latency stays low
// until the system saturates, and these let callers observe exactly that.
type BenchResult struct {
	Requests      int
	Clients       int
	Elapsed       time.Duration
	ReqPerSec     float64       // aggregate
	PerClientRate float64       // ReqPerSec / Clients — Figure 6's y axis
	LatencyP50    time.Duration // median request latency
	LatencyP95    time.Duration
	LatencyP99    time.Duration
}

// MeasureThroughput replays the trace against the cluster using the given
// number of client goroutines and returns wall-clock request throughput
// and latency percentiles. Event ids/timestamps are synthesized from the
// request index so runs are reproducible.
func MeasureThroughput(c *Cluster, trace Trace, clients int) BenchResult {
	if clients < 1 {
		clients = 1
	}
	var wg sync.WaitGroup
	latencies := make([][]time.Duration, clients)
	start := time.Now()
	chunk := (len(trace) + clients - 1) / clients
	for k := 0; k < clients; k++ {
		lo := k * chunk
		hi := lo + chunk
		if hi > len(trace) {
			hi = len(trace)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			cl := c.NewClient()
			defer cl.Close()
			lat := make([]time.Duration, 0, hi-lo)
			for i := lo; i < hi; i++ {
				req := trace[i]
				t0 := time.Now()
				var err error
				if req.IsUpdate {
					err = cl.Update(req.User, Event{User: req.User, ID: int64(i), TS: int64(i)})
				} else {
					_, err = cl.Query(req.User)
				}
				if err != nil {
					panic(err) // only a closed cluster fails a request
				}
				lat = append(lat, time.Since(t0))
			}
			latencies[k] = lat
		}(k, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rate := float64(len(trace)) / elapsed.Seconds()

	var all []float64
	for _, lat := range latencies {
		for _, d := range lat {
			all = append(all, float64(d))
		}
	}
	res := BenchResult{
		Requests:      len(trace),
		Clients:       clients,
		Elapsed:       elapsed,
		ReqPerSec:     rate,
		PerClientRate: rate / float64(clients),
	}
	if len(all) > 0 {
		res.LatencyP50 = time.Duration(stats.Percentile(all, 50))
		res.LatencyP95 = time.Duration(stats.Percentile(all, 95))
		res.LatencyP99 = time.Duration(stats.Percentile(all, 99))
	}
	return res
}

// PredictedMessages returns the average number of server messages per
// request under the trace's stationary distribution — the quantity the
// placement-aware cost model predicts. Useful for checking that measured
// throughput tracks the model (the paper's "striking" consistency).
func PredictedMessages(c *Cluster, r *workload.Rates) float64 {
	p := c.plan.Load()
	var msgs, reqs float64
	for u := range p.pushBatch {
		msgs += r.Prod[u]*float64(len(p.pushBatch[u])) + r.Cons[u]*float64(len(p.pullBatch[u]))
		reqs += r.Prod[u] + r.Cons[u]
	}
	if reqs == 0 {
		return 0
	}
	return msgs / reqs
}
