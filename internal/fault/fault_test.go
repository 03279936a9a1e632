package fault

import (
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// pipePair returns a wrapped client end and the raw server end of an
// in-memory connection.
func pipePair(p *Plan) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return p.WrapConn(a), b
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
			idx <- c.(*faultConn).idx
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
