package netstore

import (
	"net"
	"testing"

	"piggyback/internal/baseline"
	"piggyback/internal/telemetry"
)

// trafficRun boots a 2-server tier, pushes a fixed workload through a
// client, and returns (client stats, per-server stats).
func trafficRun(t *testing.T, reg *telemetry.Registry) (ClientStats, []ServerStats) {
	t.Helper()
	g, _ := figure2()
	sched := baseline.PushAll(g)
	servers := make([]*Server, 2)
	addrs := make([]string, 2)
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewServerOn(ln, ServerConfig{Metrics: reg, MetricsLabel: serverLabel(i)})
		addrs[i] = servers[i].Addr()
	}
	cl, err := DialConfigured(sched, addrs, DialConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cl.Update(0, Event{User: 0, ID: int64(i), TS: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Query(2); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	st := cl.Stats()
	out := make([]ServerStats, len(servers))
	for i, s := range servers {
		s.Close()
		out[i] = s.Stats()
	}
	return st, out
}

// Client and server byte counters must agree: everything the client
// writes, some server reads, and vice versa (connections are drained
// cleanly before counting).
func TestTrafficCountersBalance(t *testing.T) {
	cst, ssts := trafficRun(t, nil)
	if cst.BytesWritten == 0 || cst.BytesRead == 0 {
		t.Fatalf("client counted no traffic: %+v", cst)
	}
	var srvRead, srvWritten, frames int64
	for _, s := range ssts {
		srvRead += s.BytesRead
		srvWritten += s.BytesWritten
		frames += s.Frames
		if s.Conns == 0 {
			t.Fatalf("server accepted no connections: %+v", s)
		}
	}
	if cst.BytesWritten != srvRead {
		t.Fatalf("client wrote %d bytes, servers read %d", cst.BytesWritten, srvRead)
	}
	if cst.BytesRead != srvWritten {
		t.Fatalf("client read %d bytes, servers wrote %d", cst.BytesRead, srvWritten)
	}
	if frames == 0 {
		t.Fatalf("servers decoded no frames")
	}
}

// The same workload over a fault-free tier moves the same bytes, run
// after run — the traffic counters are part of the deterministic
// snapshot surface.
func TestTrafficCountersDeterministic(t *testing.T) {
	c1, s1 := trafficRun(t, nil)
	c2, s2 := trafficRun(t, nil)
	if c1 != c2 {
		t.Fatalf("client stats differ across identical runs:\n%+v\nvs\n%+v", c1, c2)
	}
	var a, b int64
	for _, s := range s1 {
		a += s.BytesRead + s.BytesWritten
	}
	for _, s := range s2 {
		b += s.BytesRead + s.BytesWritten
	}
	if a != b {
		t.Fatalf("server traffic differs across identical runs: %d vs %d", a, b)
	}
}

// With a registry configured, the same counters surface as
// netstore_client_* / netstore_server_* series.
func TestTrafficMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	cst, _ := trafficRun(t, reg)
	snap := reg.Snapshot()
	m, ok := snap.Get("netstore_client_bytes_written_total")
	if !ok || int64(m.Value) != cst.BytesWritten {
		t.Fatalf("netstore_client_bytes_written_total = %+v, want %d", m, cst.BytesWritten)
	}
	for _, name := range []string{
		"netstore_client_bytes_read_total",
		"netstore_client_redials_total",
		"netstore_server_bytes_read_total",
		"netstore_server_frames_total",
		"netstore_server_conns_total",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("metric %s missing from registry:\n%s", name, snap.PromText())
		}
	}
}
