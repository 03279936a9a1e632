// Package graphio reads and writes social graphs in two formats: a
// human-editable text edge list ("u v" per line, '#' comments) and a
// compact little-endian binary format for large graphs.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"piggyback/internal/graph"
)

// WriteText writes g as an edge list with a header comment.
func WriteText(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# piggyback graph: %d nodes %d edges\n# u v  (v subscribes to u)\n%d\n",
		g.NumNodes(), g.NumEdges(), g.NumNodes()); err != nil {
		return err
	}
	var err error
	g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses the text format: optional comment lines, a node-count
// line, then "u v" edges.
func ReadText(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *graph.Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			if len(fields) != 1 {
				return nil, fmt.Errorf("graphio: line %d: expected node count, got %q", line, text)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 || n > maxNodes {
				return nil, fmt.Errorf("graphio: line %d: bad node count %q (want 0 to %d)", line, text, maxNodes)
			}
			b = graph.NewBuilder(n)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphio: line %d: expected \"u v\", got %q", line, text)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 32)
		v, err2 := strconv.ParseInt(fields[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graphio: line %d: bad edge %q", line, text)
		}
		if err := b.TryAddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			return nil, fmt.Errorf("graphio: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graphio: empty input")
	}
	return b.Build(), nil
}

// maxNodes is the most nodes a graph.NodeID (int32) can address. Both
// readers refuse a larger count before it reaches graph.NewBuilder, which
// would allocate for every node the file claims.
const maxNodes = math.MaxInt32

// binaryMagic identifies the binary format ("PGY1").
const binaryMagic = 0x50475931

// WriteBinary writes g in the compact binary format: magic, node count,
// edge count, then (u, v) int32 pairs, all little-endian.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{binaryMagic, uint32(g.NumNodes()), uint32(g.NumEdges())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	buf := make([]int32, 0, 2048)
	var err error
	g.Edges(func(_ graph.EdgeID, u, v graph.NodeID) bool {
		buf = append(buf, u, v)
		if len(buf) == cap(buf) {
			err = binary.Write(bw, binary.LittleEndian, buf)
			buf = buf[:0]
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if err := binary.Write(bw, binary.LittleEndian, buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("graphio: reading header: %w", err)
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graphio: bad magic %#x", hdr[0])
	}
	if hdr[1] > maxNodes {
		return nil, fmt.Errorf("graphio: header claims %d nodes, more than the %d a node id can address", hdr[1], maxNodes)
	}
	n, m := int(hdr[1]), int(hdr[2])
	b := graph.NewBuilder(n)
	pair := make([]int32, 2)
	for i := 0; i < m; i++ {
		if err := binary.Read(br, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("graphio: reading edge %d: %w", i, err)
		}
		if err := b.TryAddEdge(pair[0], pair[1]); err != nil {
			return nil, fmt.Errorf("graphio: edge %d: %w", i, err)
		}
	}
	return b.Build(), nil
}
