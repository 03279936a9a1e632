package netstore

import (
	"net"

	"piggyback/internal/telemetry"
)

// countingConn wraps a net.Conn and books every byte moved into two
// telemetry counters — the bytes-on-wire measurement point for both
// ends of the protocol. The counters are always non-nil: standalone
// zero-value instruments when no registry is configured, registry
// series otherwise, so the wrapper has no branch on the hot path.
type countingConn struct {
	net.Conn
	r, w *telemetry.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Add(int64(n))
	return n, err
}

// clientInstruments are the client's failure-handling and traffic
// series. With a registry they surface on /metrics under the
// netstore_client_* names; without one they are standalone instruments
// that only back Client.Stats().
type clientInstruments struct {
	bytesRead, bytesWritten *telemetry.Counter
	retries, redials        *telemetry.Counter
	parked, replayed, drops *telemetry.Counter
	degraded                *telemetry.Counter
	downs, ups              *telemetry.Counter
	errorFrames             *telemetry.Counter
	// backoffSleep accumulates backoff wait seconds; the _seconds_total
	// suffix marks it wall-clock-adjacent so deterministic snapshot
	// comparisons skip it (the planned delays are deterministic, but the
	// convention keeps every duration-shaped series out of the diff).
	backoffSleep *telemetry.Gauge
	// handoffDepth tracks currently parked updates across all servers.
	handoffDepth *telemetry.Gauge
	// epochs is the per-server last-observed plan epoch.
	epochs []*telemetry.Gauge
}

func newClientInstruments(reg *telemetry.Registry, servers int) *clientInstruments {
	in := &clientInstruments{
		bytesRead:    reg.Counter("netstore_client_bytes_read_total"),
		bytesWritten: reg.Counter("netstore_client_bytes_written_total"),
		retries:      reg.Counter("netstore_client_retries_total"),
		redials:      reg.Counter("netstore_client_redials_total"),
		parked:       reg.Counter("netstore_client_parked_total"),
		replayed:     reg.Counter("netstore_client_replayed_total"),
		drops:        reg.Counter("netstore_client_handoff_drops_total"),
		degraded:     reg.Counter("netstore_client_degraded_queries_total"),
		downs:        reg.Counter("netstore_client_down_events_total"),
		ups:          reg.Counter("netstore_client_up_events_total"),
		errorFrames:  reg.Counter("netstore_client_error_frames_total"),
		backoffSleep: reg.Gauge("netstore_client_backoff_sleep_seconds_total"),
		handoffDepth: reg.Gauge("netstore_client_handoff_depth"),
		epochs:       make([]*telemetry.Gauge, servers),
	}
	for i := range in.epochs {
		in.epochs[i] = reg.Gauge("netstore_client_epoch", telemetry.Label{Key: "server", Value: serverLabel(i)})
	}
	return in
}

// serverInstruments are the server-side traffic and protocol series.
type serverInstruments struct {
	bytesRead, bytesWritten *telemetry.Counter
	frames, protoErrors     *telemetry.Counter
	conns                   *telemetry.Counter
	epoch                   *telemetry.Gauge
}

func newServerInstruments(reg *telemetry.Registry, label string) *serverInstruments {
	var labels []telemetry.Label
	if label != "" {
		labels = []telemetry.Label{{Key: "server", Value: label}}
	}
	return &serverInstruments{
		bytesRead:    reg.Counter("netstore_server_bytes_read_total", labels...),
		bytesWritten: reg.Counter("netstore_server_bytes_written_total", labels...),
		frames:       reg.Counter("netstore_server_frames_total", labels...),
		protoErrors:  reg.Counter("netstore_server_proto_errors_total", labels...),
		conns:        reg.Counter("netstore_server_conns_total", labels...),
		epoch:        reg.Gauge("netstore_server_epoch", labels...),
	}
}

// serverLabel renders a server index as a label value without pulling
// in strconv at every call site.
func serverLabel(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return serverLabel(i/10) + string(rune('0'+i%10))
}
