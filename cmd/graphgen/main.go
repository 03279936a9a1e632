// Command graphgen generates synthetic social graphs in the library's
// text or binary format.
//
// Usage:
//
//	graphgen -preset twitter -nodes 10000 -seed 1 -o twitter.graph
//	graphgen -preset er -nodes 1000 -edges 20000 -format text -o er.txt
//	graphgen -preset flickr -scale 1000000 -o flickr1m.graph
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/graphio"
)

func main() {
	var (
		preset = flag.String("preset", "twitter", "graph shape: twitter | flickr | er | zipf")
		nodes  = flag.Int("nodes", 10000, "number of nodes")
		edges  = flag.Int("edges", 0, "number of edges (er preset; default 20×nodes)")
		scale  = flag.Int("scale", 0, "target edge count; sizes the graph and switches to the streaming generator, whose own state is O(n) (twitter/flickr presets)")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output file (default stdout)")
		format = flag.String("format", "binary", "output format: binary | text")
		stats  = flag.Bool("stats", false, "print graph statistics to stderr")
	)
	flag.Parse()

	var g *graph.Graph
	switch *preset {
	case "twitter", "flickr":
		cfg := graphgen.TwitterLike(*nodes, *seed)
		if *preset == "flickr" {
			cfg = graphgen.FlickrLike(*nodes, *seed)
		}
		if *scale > 0 {
			perNode := float64(cfg.AvgFollows) * (1 + cfg.Reciprocity)
			cfg.Nodes = int(float64(*scale) / perNode)
			if cfg.Nodes < 2 {
				cfg.Nodes = 2
			}
			g = graphgen.StreamSocial(cfg)
		} else {
			g = graphgen.Social(cfg)
		}
	case "er":
		m := *edges
		if m == 0 {
			m = 20 * *nodes
		}
		g = graphgen.ErdosRenyi(*nodes, m, *seed)
	case "zipf":
		g = graphgen.ZipfConfiguration(*nodes, 1.5, 1000, *seed)
	default:
		fatalf("unknown preset %q", *preset)
	}

	if *stats {
		s := g.ComputeStats(1000, rand.New(rand.NewSource(*seed)))
		fmt.Fprintf(os.Stderr,
			"nodes=%d edges=%d avg-deg=%.1f max-out=%d reciprocity=%.3f clustering=%.3f\n",
			s.Nodes, s.Edges, s.AvgOutDegree, s.MaxOutDegree, s.Reciprocity, s.ClusteringCoef)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("creating %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	var err error
	switch *format {
	case "binary":
		err = graphio.WriteBinary(w, g)
	case "text":
		err = graphio.WriteText(w, g)
	default:
		fatalf("unknown format %q", *format)
	}
	if err != nil {
		fatalf("writing graph: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
