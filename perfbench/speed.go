package main

// The machine's speed. On a shared virtual machine the time a fixed piece
// of work takes drifts by 10-25% over minutes, as other tenants come and
// go, and every timing metric drifts with it. So the end-to-end run times
// a fixed reference workload, made only of the Go standard library,
// between its blocks and set-ups, and reports each timing metric at the
// reference speed: a block's raw figure scaled by how much slower than
// nominal the reference work ran around it. The raw figures are printed
// beside the scaled ones.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// nominalReference is the reference work's wall time the scaled metrics
// are expressed at: the median of about 1100 timings on the 2-vCPU KVM
// guest (Intel Xeon) the workloads were sized on. It only sets the scale;
// every commit is scaled to the same constant.
const nominalReference = 57 * time.Millisecond

// reference is one timing of the reference work.
type reference struct {
	mem, alloc, net time.Duration
}

func (r reference) total() time.Duration { return r.mem + r.alloc + r.net }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// slowdown is how much slower than nominal the reference work ran, as the
// mean of the timings a and b taken before and after a measured interval.
func slowdown(a, b reference) float64 {
	return float64(a.total()+b.total()) / 2 / float64(nominalReference)
}

// timeReference runs the reference work once, each part on two goroutines
// as the benchmark's load keeps both of a small machine's cores busy:
//
//   - memory: a pointer chase through a table far larger than the L2
//     caches;
//   - allocation: JSON decoding and encoding of a small document, which
//     allocates and reflects as the serving path does;
//   - loopback: 64-byte round trips over a loopback TCP connection, the
//     system calls and wake-ups of an HTTP exchange.
func timeReference() (reference, error) {
	var r reference
	table := chaseTable()
	r.mem = onTwo(func() {
		i := uint32(7)
		for k := 0; k < 200000; k++ {
			i = table[i]
		}
		sink.Add(int64(i))
	})
	r.alloc = onTwo(func() {
		for k := 0; k < 400; k++ {
			var d referenceDoc
			if json.Unmarshal(referenceJSON, &d) == nil {
				b, _ := json.Marshal(&d)
				sink.Add(int64(len(b)))
			}
		}
	})
	var err error
	r.net, err = pingPong(1000)
	return r, err
}

// sink keeps the reference work's results alive.
var sink atomic.Int64

// onTwo runs f on two goroutines and returns the wall time until both end.
func onTwo(f func()) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()
	return time.Since(t0)
}

// chaseTable is a 64 MiB table holding one cycle through all its slots in
// a scrambled order, built on first use.
var chaseTable = sync.OnceValue(func() []uint32 {
	const n = 16 << 20
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint32(1)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	t := make([]uint32, n)
	for i := range perm {
		t[perm[i]] = perm[(i+1)%n]
	}
	return t
})

type referenceDoc struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Tags   []string  `json:"tags"`
}

var referenceJSON = func() []byte {
	d := referenceDoc{Name: "reference"}
	for i := 0; i < 64; i++ {
		d.Values = append(d.Values, float64(i)*1.25)
		d.Tags = append(d.Tags, fmt.Sprintf("tag-%d", i))
	}
	b, _ := json.Marshal(d)
	return b
}()

// pingPong times n 64-byte round trips over a loopback TCP connection.
func pingPong(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				done <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	return d, <-done
}
