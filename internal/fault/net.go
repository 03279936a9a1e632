package fault

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjected wraps every error this package fabricates, so tests can
// tell injected failures from real ones.
var ErrInjected = errors.New("fault: injected")

// WrapListener returns ln with every accepted connection wrapped in the
// plan: accepted conns get plan indices in accept order. Wrapping a
// server's listener makes the server's response writes the injection
// point (delayed frames, mid-reply resets).
func (p *Plan) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, p: p}
}

type faultListener struct {
	net.Listener
	p *Plan
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.p.WrapConn(c), nil
}

// WrapConn returns c under the plan, assigned the next connection
// index. Faults fire on Write calls (one frame flush is one write);
// reads pass through untouched.
func (p *Plan) WrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, p: p, idx: p.nextIndex()}
}

type faultConn struct {
	net.Conn
	p   *Plan
	idx int

	mu  sync.Mutex
	ops int
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	op := c.ops
	c.ops++
	c.mu.Unlock()

	// Delays apply first (and stack); the first terminal rule decides
	// the write's fate.
	var terminal *Rule
	for i := range c.p.Rules {
		r := &c.p.Rules[i]
		if !r.matches(c.idx, op) {
			continue
		}
		if r.Kind == KindDelay {
			c.p.record(c.idx, op, KindDelay)
			time.Sleep(r.Delay)
		} else if terminal == nil {
			terminal = r
		}
	}
	if terminal == nil {
		return c.Conn.Write(b)
	}
	c.p.record(c.idx, op, terminal.Kind)
	switch terminal.Kind {
	case KindDrop:
		// Claim success, send nothing: the peer waits for a frame that
		// never arrives.
		return len(b), nil
	case KindPartial:
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, errors.Join(ErrInjected, errors.New("partial write"))
	default: // KindReset
		c.Conn.Close()
		return 0, errors.Join(ErrInjected, errors.New("connection reset"))
	}
}
