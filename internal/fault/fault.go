// Package fault is deterministic fault injection for the serving tier.
// The paper's prototype omits failure handling "for simplicity"; this
// repository does not, and a robustness layer is only testable if its
// faults are reproducible. Everything here is schedule-driven: a Plan
// names exactly which operation on which connection misbehaves, and
// seed-derived rules (Scatter) expand the same way every run — so the
// same Plan pins the same chaos, byte for byte, run after run.
//
// Plan.WrapListener / Plan.WrapConn interpose on net.Conn writes and
// inject delays, silent drops, partial writes, and mid-stream resets at
// scheduled per-connection write-op counts (write ops, not reads,
// because kernel read chunking is not deterministic while one frame
// flush is one write). The daemon's solver failures are injected by
// its own tests, which replace its regional solver.
package fault

import (
	"math/rand"
	"sync"
	"time"
)

// Kind is the failure mode a Rule injects.
type Kind uint8

const (
	// KindDelay sleeps Rule.Delay before the write proceeds — a slow
	// network or a stalled peer, below the transport's failure horizon.
	KindDelay Kind = iota + 1
	// KindDrop swallows the write: the caller sees success, the peer
	// sees nothing. The frame stream desyncs exactly as it would when a
	// server dies after reading a request but before replying.
	KindDrop
	// KindPartial writes the first half of the buffer, closes the
	// connection, and fails the call — a crash mid-frame.
	KindPartial
	// KindReset closes the connection before writing anything — a
	// mid-stream TCP reset.
	KindReset
)

// String renders the kind for logs and test diffs.
func (k Kind) String() string {
	switch k {
	case KindDelay:
		return "delay"
	case KindDrop:
		return "drop"
	case KindPartial:
		return "partial"
	case KindReset:
		return "reset"
	}
	return "none"
}

// Rule schedules one failure: connection Conn (in accept/wrap order;
// -1 matches every connection) misbehaves at its Op'th write (0-based),
// for Count consecutive writes (0 means 1).
type Rule struct {
	Kind  Kind
	Conn  int
	Op    int
	Count int
	// Delay is the injected latency for KindDelay; ignored otherwise.
	Delay time.Duration
}

func (r Rule) matches(conn, op int) bool {
	if r.Conn != -1 && r.Conn != conn {
		return false
	}
	n := r.Count
	if n <= 0 {
		n = 1
	}
	return op >= r.Op && op < r.Op+n
}

// Fired records one injected fault, in the order faults landed on that
// connection (the per-connection order is deterministic; the global
// interleaving across connections is not, so comparisons should group
// by Conn).
type Fired struct {
	Conn, Op int
	Kind     Kind
}

// Plan is a deterministic fault schedule: explicit Rules, plus Seed for
// deriving scattered rules (Scatter) — same seed, same schedule. A Plan
// may wrap many connections; each gets the next index in wrap order.
// Safe for concurrent use.
type Plan struct {
	Seed  int64
	Rules []Rule

	mu    sync.Mutex
	next  int
	fired []Fired
}

// Fired returns a copy of every fault injected so far.
func (p *Plan) Fired() []Fired {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fired, len(p.fired))
	copy(out, p.fired)
	return out
}

// FiredOn returns the faults injected on one connection, in order.
func (p *Plan) FiredOn(conn int) []Fired {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Fired
	for _, f := range p.fired {
		if f.Conn == conn {
			out = append(out, f)
		}
	}
	return out
}

func (p *Plan) record(conn, op int, k Kind) {
	p.mu.Lock()
	p.fired = append(p.fired, Fired{Conn: conn, Op: op, Kind: k})
	p.mu.Unlock()
}

func (p *Plan) nextIndex() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.next
	p.next++
	return i
}

// Scatter derives n pseudo-random rules of the given kind from seed:
// connection indices in [0, conns), write ops in [0, ops), each
// firing once, delays in [delay/2, delay) for KindDelay. The expansion
// is a pure function of its arguments — the seed-driven half of a
// deterministic chaos schedule.
func Scatter(seed int64, kind Kind, n, conns, ops int, delay time.Duration) []Rule {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Rule, n)
	for i := range out {
		out[i] = Rule{
			Kind: kind,
			Conn: rng.Intn(conns),
			Op:   rng.Intn(ops),
		}
		if kind == KindDelay {
			out[i].Delay = delay/2 + time.Duration(rng.Int63n(int64(delay/2)+1))
		}
	}
	return out
}
