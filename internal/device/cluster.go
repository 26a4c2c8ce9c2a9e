package device

import (
	"fmt"
	"time"
)

// Link models the interconnect between an ordered device pair: copy cost is
// Latency + bytes·PerByte.
type Link struct {
	Latency time.Duration
	PerByte time.Duration
}

// Time returns the transfer time for n bytes over the link.
func (l Link) Time(n int) time.Duration {
	return l.Latency + time.Duration(n)*l.PerByte
}

// Cluster is N simulated devices' per-pair copy-cost matrix for
// cross-device state and weight movement (§5 multi-GPU). Device IDs are
// 0..N-1.
type Cluster struct {
	links [][]Link
}

// NewCluster builds an n-device cluster with uniform links taken from the
// calibrated default overheads (NVLink-ish: 10µs latency + 1ns/byte).
func NewCluster(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("device: cluster size %d", n))
	}
	o := DefaultOverheads()
	c := &Cluster{links: make([][]Link, n)}
	for i := range c.links {
		c.links[i] = make([]Link, n)
		for j := range c.links[i] {
			if j != i {
				c.links[i][j] = Link{Latency: o.DeviceCopyLatency, PerByte: o.DeviceCopyPerByte}
			}
		}
	}
	return c
}

// N returns the device count.
func (c *Cluster) N() int { return len(c.links) }

// CopyTime returns the cost of moving n bytes from one device to another.
// Same-device or unknown (-1) sources are free.
func (c *Cluster) CopyTime(from, to int, n int) time.Duration {
	if from == to || from < 0 || to < 0 || from >= len(c.links) || to >= len(c.links) {
		return 0
	}
	return c.links[from][to].Time(n)
}
