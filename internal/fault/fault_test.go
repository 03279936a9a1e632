package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"piggyback/internal/solver"
)

// pipePair returns a wrapped client end and the raw server end of an
// in-memory connection.
func pipePair(p *Plan) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return p.WrapConn(a), b
}

func TestScatterDeterministic(t *testing.T) {
	a := Scatter(42, KindDelay, 8, 4, 1000, 50*time.Millisecond)
	b := Scatter(42, KindDelay, 8, 4, 1000, 50*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different rules:\n%v\n%v", a, b)
	}
	c := Scatter(43, KindDelay, 8, 4, 1000, 50*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical rules")
	}
	for _, r := range a {
		if r.Conn < 0 || r.Conn >= 4 || r.Op < 0 || r.Op >= 1000 {
			t.Fatalf("rule out of range: %+v", r)
		}
		if r.Delay < 25*time.Millisecond || r.Delay > 50*time.Millisecond {
			t.Fatalf("delay out of range: %v", r.Delay)
		}
	}
}

func TestDropSwallowsScheduledWrite(t *testing.T) {
	p := &Plan{Rules: []Rule{{Kind: KindDrop, Conn: 0, Op: 1}}}
	cw, sr := pipePair(p)
	defer cw.Close()
	defer sr.Close()

	got := make(chan []byte, 4)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := io.ReadFull(sr, buf); err != nil {
				close(got)
				return
			}
			got <- []byte{buf[0]}
		}
	}()
	for i := byte(0); i < 3; i++ {
		if _, err := cw.Write([]byte{i}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if b := <-got; b[0] != 0 {
		t.Fatalf("first byte = %d, want 0", b[0])
	}
	// Op 1 was dropped: the next byte the peer sees is op 2's.
	if b := <-got; b[0] != 2 {
		t.Fatalf("second received byte = %d, want 2 (op 1 dropped)", b[0])
	}
	want := []Fired{{Conn: 0, Op: 1, Kind: KindDrop}}
	if !reflect.DeepEqual(p.FiredOn(0), want) {
		t.Fatalf("fired = %v, want %v", p.FiredOn(0), want)
	}
}

func TestResetClosesConnection(t *testing.T) {
	p := &Plan{Rules: []Rule{{Kind: KindReset, Conn: 0, Op: 0}}}
	cw, sr := pipePair(p)
	defer sr.Close()
	if _, err := cw.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write error = %v, want ErrInjected", err)
	}
	// The underlying conn is closed: the peer sees EOF.
	sr.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := sr.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestDelayFiresAndRecords(t *testing.T) {
	p := &Plan{Rules: []Rule{{Kind: KindDelay, Conn: -1, Op: 0, Delay: 30 * time.Millisecond}}}
	cw, sr := pipePair(p)
	defer cw.Close()
	defer sr.Close()
	go io.Copy(io.Discard, sr)
	start := time.Now()
	if _, err := cw.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("write returned after %v, want ≥30ms delay", d)
	}
	if f := p.FiredOn(0); len(f) != 1 || f[0].Kind != KindDelay {
		t.Fatalf("fired = %v", f)
	}
}

func TestWrapListenerIndexesConnsInAcceptOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{}
	fln := p.WrapListener(ln)
	defer fln.Close()
	idx := make(chan int, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := fln.Accept()
			if err != nil {
				return
			}
			idx <- Index(c)
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if got := <-idx; got != i {
			t.Fatalf("accepted conn %d got plan index %d", i, got)
		}
		c.Close()
	}
}

// okSolver is a stub that always succeeds with a nil schedule-free
// result (enough for counting).
type okSolver struct{ solves int }

func (s *okSolver) Name() string { return "ok" }
func (s *okSolver) Solve(context.Context, solver.Problem) (*solver.Result, error) {
	s.solves++
	return &solver.Result{}, nil
}

func TestSolverPanicsOnScheduledSolves(t *testing.T) {
	inner := &okSolver{}
	s := SolverPanics(2, 4)(inner)
	for i := 1; i <= 5; i++ {
		var res *solver.Result
		var err error
		raised := func() (p any) {
			defer func() { p = recover() }()
			res, err = s.Solve(context.Background(), solver.Problem{})
			return nil
		}()
		sabotaged := i >= 2 && i < 4
		want := fmt.Sprintf("fault: injected panic on solve %d of ok", i)
		if sabotaged && raised != want {
			t.Fatalf("solve %d: panicked with %v, want %q", i, raised, want)
		}
		if !sabotaged && (raised != nil || res == nil || err != nil) {
			t.Fatalf("solve %d: expected success, got panic=%v res=%v err=%v", i, raised, res, err)
		}
	}
	if inner.solves != 3 {
		t.Fatalf("inner ran %d times, want 3", inner.solves)
	}
}

func TestSolverStallsUntilContextDone(t *testing.T) {
	inner := &okSolver{}
	s := SolverStalls(1, 2)(inner)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := s.Solve(ctx, solver.Problem{})
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled solve: res=%v err=%v", res, err)
	}
	if res, err := s.Solve(context.Background(), solver.Problem{}); res == nil || err != nil {
		t.Fatalf("post-stall solve failed: %v", err)
	}
}
