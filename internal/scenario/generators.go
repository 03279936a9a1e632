// The built-in zoo. Every generator is adversarial by construction:
// it manufactures one specific stress against the hybrid push/pull
// schedule instead of sampling and hoping. All of them are pure
// functions of (graph, rates, Params) — no time, no global state — and
// every op they emit is valid at its position in the stream.

package scenario

import (
	"math/rand"

	"piggyback/internal/graph"
	"piggyback/internal/partition"
	"piggyback/internal/workload"
)

// Built-in scenario names, the keys of Default.
const (
	// FlashCrowd is the celebrity flash crowd: the hottest producer's
	// rates spike ~1000× mid-trace while a follower crowd piles in, then
	// decay back. It stresses push/pull choices priced at pre-spike
	// rates, and hub coverage of the crowd's new edges.
	FlashCrowd = "flashcrowd"
	// Diurnal is the rate wave: user activity swings ±80% on a
	// timezone-staggered triangle wave, two full cycles per trace. It
	// stresses rate-driven drift with no structural churn signal.
	Diurnal = "diurnal"
	// Cascade is the viral follow cascade confined to one partition
	// region: adoption spreads follower-of-follower with rate surges.
	// Its correlated adds concentrate dirt in one re-solve region.
	Cascade = "cascade"
	// RegionChurn is region-correlated churn: alternating add/remove
	// bursts localized to one partition.Locality region at a time. It
	// stresses repeated re-solves of the same regions and revert backoff.
	RegionChurn = "regionchurn"
	// LDBC is the LDBC-SNB-style stationary generator: power-law degree
	// growth with degree-correlated, heavy-tailed activity shifts, per
	// the SIGMOD 2014 contest analysis of the LDBC social graph: a
	// realistic stationary baseline with heavier tails than the control.
	LDBC = "ldbc"
	// Preferential is the control row: the repo's original stationary
	// preferential-attachment churn (workload.GenerateChurn) under the
	// zoo interface. It stresses nothing by design: it is the zoo's
	// stationary reference point.
	Preferential = "preferential"
)

// GenFlashCrowd emits the celebrity flash crowd. Three phases: calm
// background churn; a spike where the hottest producer's rates ramp
// ×~1150 (12 steps of ×1.8) while a crowd of 2-hop-adjacent users
// follows it and starts refreshing; and a decay where the rates fall
// ×0.82 per step back to base while part of the crowd unfollows. The
// crowd is drawn follower-of-follower (v follows c where some w has
// c → w and w → v live), so the new edges share candidate cover hubs
// with the pre-spike schedule: coverage the maintainer's adds and the
// refine sweep after a re-solve can take for free.
func GenFlashCrowd(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(FlashCrowd, g, r, p)
	if b.want <= 0 || b.n < 4 {
		return b.done()
	}
	c := hottestProducer(g)
	baseP, baseC := b.prod[c], b.cons[c]

	b.phase("calm")
	for len(b.ops) < b.want/4 {
		b.backgroundOp(0.5, 0.3)
	}

	b.phase("spike")
	const rampSteps = 12
	spikeEnd := b.want / 2
	// Ramp ops are spread evenly across the spike phase; everything
	// between them is crowd arrival.
	nextRamp := len(b.ops)
	rampGap := maxInt((spikeEnd-len(b.ops))/rampSteps, 1)
	ramped := 0
	var crowd []graph.NodeID // consumers that joined during the spike
	followers := g.OutNeighbors(c)
	for len(b.ops) < spikeEnd {
		if ramped < rampSteps && len(b.ops) >= nextRamp {
			b.scaleRates(c, 1.8, 1.8)
			ramped++
			nextRamp += rampGap
			continue
		}
		switch x := b.rng.Float64(); {
		case x < 0.55 && len(followers) > 0:
			// Arrival: v discovers c through a follower w (c → w, w → v
			// live) and follows — the edge c → v lands with candidate
			// hub w already in place.
			w := followers[b.rng.Intn(len(followers))]
			wf := g.OutNeighbors(w)
			if len(wf) == 0 {
				b.backgroundOp(0.5, 0.3)
				continue
			}
			v := wf[b.rng.Intn(len(wf))]
			if b.add(c, v) {
				crowd = append(crowd, v)
			} else {
				b.backgroundOp(0.5, 0.3)
			}
		case x < 0.75 && len(crowd) > 0:
			// Crowd engagement: a recent arrival refreshes feverishly.
			v := crowd[b.rng.Intn(len(crowd))]
			b.scaleRates(v, 1, 1.5)
		default:
			b.backgroundOp(0.5, 0.3)
		}
	}

	b.phase("decay")
	nextDecay := len(b.ops)
	decayGap := maxInt((b.want-len(b.ops))/64, 1)
	for !b.full() {
		if len(b.ops) >= nextDecay && (b.prod[c] > baseP || b.cons[c] > baseC) {
			b.setRates(c, maxFloat(b.prod[c]*0.82, baseP), maxFloat(b.cons[c]*0.82, baseC))
			nextDecay += decayGap
			continue
		}
		if len(crowd) > 0 && b.rng.Float64() < 0.25 {
			// Part of the crowd loses interest and unfollows.
			i := b.rng.Intn(len(crowd))
			v := crowd[i]
			crowd[i] = crowd[len(crowd)-1]
			crowd = crowd[:len(crowd)-1]
			if b.remove(c, v) {
				continue
			}
		}
		b.backgroundOp(0.45, 0.35)
	}
	return b.done()
}

// GenDiurnal emits timezone-staggered activity waves: 85% of ops pin a
// user's rates to base × (1 + 0.8·tri), where tri is a triangle wave
// over two full cycles per trace, phase-shifted by the user's
// "timezone" (node id mod 24). The remaining ops are light structural
// churn with no rate drift, so the wave stays the only rate signal.
// The triangle (not a sine) keeps the stream exactly reproducible
// across platforms: only +,−,×,÷ and abs touch the values.
func GenDiurnal(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(Diurnal, g, r, p)
	if b.want <= 0 || b.n < 2 {
		return b.done()
	}
	baseP := append([]float64(nil), b.prod...)
	baseC := append([]float64(nil), b.cons...)

	b.phase("waves")
	for !b.full() {
		if b.rng.Float64() < 0.85 {
			u := b.rng.Intn(b.n)
			t := float64(len(b.ops)) / float64(b.want)
			x := 2*t + float64(u%24)/24
			x -= float64(int(x)) // frac
			wave := 1 + 0.8*(4*absFloat(x-0.5)-1)
			b.setRates(graph.NodeID(u), baseP[u]*wave, baseC[u]*wave)
			continue
		}
		if b.rng.Float64() < 0.6 {
			u := graph.NodeID(b.rng.Intn(b.n))
			v := graph.NodeID(b.rng.Intn(b.n))
			if b.add(u, v) {
				continue
			}
		}
		b.removeRandom()
	}
	return b.done()
}

// GenCascade emits a viral follow cascade confined to one partition
// region: the region (per partition.Locality) holding the hottest
// producer adopts follower-of-follower — every new adopter both follows
// an earlier adopter and becomes followable — with consumption surges
// on adoption, then an aftermath of elevated unfollows. Dirt
// concentrates in one re-solve region by construction.
func GenCascade(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(Cascade, g, r, p)
	if b.want <= 0 || b.n < 8 {
		return b.done()
	}
	const servers = 8
	a := partition.Locality(g, servers, p.Seed)
	c := hottestProducer(g)
	members := a.Groups()[a.Of(c)]

	b.phase("seed")
	for len(b.ops) < b.want/10 {
		b.backgroundOp(0.5, 0.3)
	}

	b.phase("viral")
	adopters := []graph.NodeID{c}
	viralEnd := (b.want * 7) / 10
	for len(b.ops) < viralEnd {
		if b.rng.Float64() < 0.75 && len(members) > 0 {
			u := adopters[b.rng.Intn(len(adopters))]
			v := members[b.rng.Intn(len(members))]
			if b.add(u, v) {
				adopters = append(adopters, v)
				if b.rng.Float64() < 0.4 {
					b.scaleRates(v, 1, 1.5)
				}
				continue
			}
		}
		b.backgroundOp(0.4, 0.2)
	}

	b.phase("aftermath")
	for !b.full() {
		b.backgroundOp(0.25, 0.55)
	}
	return b.done()
}

// GenRegionChurn emits region-correlated churn: partition.Locality
// splits the graph into 6 regions and the trace walks them round-robin,
// each visit a burst of ~24–40 ops that either grows the region
// (intra-region adds) or shrinks it (intra-region removes). The same
// regions churn over and over, exercising the daemon's revert backoff
// and re-solve budget instead of spreading dirt uniformly.
func GenRegionChurn(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(RegionChurn, g, r, p)
	if b.want <= 0 || b.n < 8 {
		return b.done()
	}
	const servers = 6
	a := partition.Locality(g, servers, p.Seed)
	groups := a.Groups()

	b.phase("bursts")
	for round := 0; !b.full(); round++ {
		members := groups[round%servers]
		if len(members) < 2 {
			b.backgroundOp(0.4, 0.4)
			continue
		}
		burst := 24 + b.rng.Intn(17)
		if round%2 == 0 {
			// Growth burst: new intra-region follows.
			for i := 0; i < burst && !b.full(); i++ {
				u := members[b.rng.Intn(len(members))]
				v := members[b.rng.Intn(len(members))]
				if !b.add(u, v) {
					// Saturated draw: churn the would-be follower's
					// activity instead so the burst stays in-region.
					b.scaleRates(u, 1.1, 1.1)
				}
			}
			continue
		}
		// Shrink burst: remove live intra-region edges, drawn without
		// replacement.
		reg := int32(round % servers)
		var intra []graph.Edge
		for _, e := range b.live {
			if a.Of(e.From) == reg && a.Of(e.To) == reg {
				intra = append(intra, e)
			}
		}
		for i := 0; i < burst && len(intra) > 0 && !b.full(); i++ {
			j := b.rng.Intn(len(intra))
			e := intra[j]
			intra[j] = intra[len(intra)-1]
			intra = intra[:len(intra)-1]
			b.remove(e.From, e.To)
		}
	}
	return b.done()
}

// GenLDBC emits the LDBC-SNB-style stationary stream: follows arrive
// with producers drawn proportionally to live follower count and
// consumers biased toward active followees (the degree/degree
// correlation the SIGMOD 2014 contest analysis measured on the LDBC
// social graph), unfollows hit uniformly, and activity shifts are
// heavy-tailed (Zipf) with the shifted user drawn degree-biased half
// the time — high-degree people are also the most active, so rate dirt
// lands where the schedule has the most hub structure to lose.
func GenLDBC(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(LDBC, g, r, p)
	if b.want <= 0 || b.n < 2 {
		return b.done()
	}
	zipf := rand.NewZipf(b.rng, 1.3, 1, 64)

	b.phase("steady")
	for !b.full() {
		x := b.rng.Float64()
		switch {
		case x < 0.45:
			u := graph.NodeID(b.rng.Intn(b.n))
			if b.rng.Float64() < 0.8 {
				if hot, ok := b.randomLiveFrom(); ok {
					u = hot
				}
			}
			v := graph.NodeID(b.rng.Intn(b.n))
			if b.rng.Float64() < 0.5 {
				if busy, ok := b.randomLiveTo(); ok {
					v = busy
				}
			}
			if !b.add(u, v) {
				b.removeRandom()
			}
		case x < 0.70:
			b.removeRandom()
		default:
			u := graph.NodeID(b.rng.Intn(b.n))
			if b.rng.Float64() < 0.5 {
				if hot, ok := b.randomLiveFrom(); ok {
					u = hot
				}
			}
			f := 1 + float64(zipf.Uint64())/8
			if b.rng.Intn(2) == 0 {
				f = 1 / f
			}
			fc := 1 + float64(zipf.Uint64())/8
			if b.rng.Intn(2) == 0 {
				fc = 1 / fc
			}
			b.scaleRates(u, f, fc)
		}
	}
	return b.done()
}

// GenPreferential wraps workload.GenerateChurn — the repo's original
// stationary churn — under the zoo interface, so every zoo consumer
// gets the pre-zoo trace as its control row.
func GenPreferential(g *graph.Graph, r *workload.Rates, p Params) []workload.ChurnOp {
	b := newBuilder(Preferential, g, r, p)
	if b.want <= 0 || b.n < 2 {
		return b.done()
	}
	b.phase("stationary")
	ops := workload.GenerateChurn(g, r, p.Ops, workload.ChurnConfig{Seed: p.Seed})
	b.ops = ops
	b.phaseOps = len(ops)
	b.opsTotal.Add(int64(len(ops)))
	return b.done()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
