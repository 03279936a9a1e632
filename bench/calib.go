package main

// calib.go reads how fast the machine is right now and turns the
// readings into the machine factor every timing is divided by.
//
// The container the benchmark was defined on has a fast and a slow state
// that each last minutes: the same run's median moved between 0.92 and
// 1.35 s over an hour, a request over loopback TCP between 25 and 37 µs,
// all four workloads together. A CPU-bound spin does not see it (±3%);
// what does is the cost of waking a thread (a loopback TCP ping-pong:
// 8.5 µs against 13 µs) and, less sharply, cache-resident memory work
// (the kernel below: 42 ms against 52 ms). Measured raw, every timing
// spread 26–49% over ten runs; divided by the factor, 7–16%.

import (
	"io"
	"math/rand"
	"net"
	"sort"
	"time"
)

// probeSizes sizes the three probes.
type probeSizes struct {
	spins       int // iterations of the spin
	pings       int // round trips of the ping-pong
	kernelNodes int // nodes of the memory kernel's graph
}

// reading is one look at the machine.
type reading struct{ spinMS, pingUS, kernelMS float64 }

// The reference state is the container's fast one at the full probe
// sizes. Only ratios between runs matter, so on another machine the
// constants merely fix the unit.
const (
	refPingUS   = 8.5
	refKernelMS = 42.0
)

func readMachine(p probeSizes) (reading, error) {
	rtt, err := pingPong(p.pings)
	return reading{
		spinMS:   ms(spin(p.spins)),
		pingUS:   1000 * ms(rtt),
		kernelMS: ms(memKernel(p.kernelNodes)),
	}, err
}

// machineFactor is how much slower than the reference state the machine
// was between two readings: the mean of the ping-pong's and the memory
// kernel's slow-down, which between them bracket how much the program's
// layers slow down (solvers 1.35×, serving 1.5×, re-solve stalls 1.25×
// between the two states). The spin is reported but not used: it does
// not move.
func machineFactor(before, after reading) float64 {
	ping := (before.pingUS + after.pingUS) / 2 / refPingUS
	kernel := (before.kernelMS + after.kernelMS) / 2 / refKernelMS
	return (ping + kernel) / 2
}

// spin is a fixed amount of integer work (harness.calib_ms).
func spin(n int) time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		panic("xorshift reached zero")
	}
	return time.Since(t)
}

// memKernel is a fixed amount of allocation-heavy, cache-resident graph
// work that owes nothing to the repo's code: build sorted adjacency
// lists of 40 neighbours, then intersect every edge's two lists
// (harness.memkernel_ms).
func memKernel(n int) time.Duration {
	const deg = 40
	t := time.Now()
	rng := rand.New(rand.NewSource(1))
	adj := make([][]int32, n)
	for u := range adj {
		seen := map[int32]bool{}
		for len(seen) < min(deg, n) {
			seen[int32(rng.Intn(n))] = true
		}
		l := make([]int32, 0, deg)
		for v := range seen {
			l = append(l, v)
		}
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		adj[u] = l
	}
	total := 0
	for u := range adj {
		for _, v := range adj[u] {
			a, b := adj[u], adj[v]
			var common []int32
			for i, j := 0, 0; i < len(a) && j < len(b); {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					common = append(common, a[i])
					i++
					j++
				}
			}
			total += len(common)
		}
	}
	if total < 0 {
		panic("unreachable")
	}
	return time.Since(t)
}

// pingPong is the mean round trip of n one-byte messages over a loopback
// TCP connection between two goroutines of the harness
// (harness.pingpong_us).
func pingPong(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	b := make([]byte, 1)
	t := time.Now()
	for i := 0; i < n && err == nil; i++ {
		if _, err = c.Write(b); err == nil {
			_, err = c.Read(b)
		}
	}
	d := time.Since(t) / time.Duration(n)
	c.Close()
	if e := <-echoed; err == nil {
		err = e
	}
	return d, err
}
