// Package schedio serializes request schedules so that the optimizer
// (expensive, run offline — the paper's MapReduce jobs take about an
// hour per iteration on the full Twitter graph) can hand its output to
// the serving tier and the CLI tools.
//
// Format (little-endian): magic "PGS1", node count, edge count, then per
// edge one flag byte (push/pull/covered bits) and, for covered edges
// only, the int32 hub node. The graph itself is not stored, so a reader
// verifies node/edge counts against the graph it is given and
// re-validates the schedule; the package's tests hold the decoder that
// does so.
package schedio

import (
	"bufio"
	"encoding/binary"
	"io"

	"piggyback/internal/core"
	"piggyback/internal/graph"
)

const magic = 0x50475331 // "PGS1"

const (
	flagPush    = 1 << 0
	flagPull    = 1 << 1
	flagCovered = 1 << 2
)

// Write serializes s.
func Write(w io.Writer, s *core.Schedule) error {
	bw := bufio.NewWriter(w)
	g := s.Graph()
	hdr := []uint32{magic, uint32(g.NumNodes()), uint32(g.NumEdges())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		var f byte
		if s.IsPush(id) {
			f |= flagPush
		}
		if s.IsPull(id) {
			f |= flagPull
		}
		if s.IsCovered(id) {
			f |= flagCovered
		}
		if err := bw.WriteByte(f); err != nil {
			return err
		}
		if f&flagCovered != 0 {
			if err := binary.Write(bw, binary.LittleEndian, int32(s.Hub(id))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
