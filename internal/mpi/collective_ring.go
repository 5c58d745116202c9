package mpi

import (
	"fmt"
	"os"
	"strconv"
)

// The bandwidth-optimal ring Allgather and the size-based selector that
// routes between it and the latency-optimal tree.
//
// The tree Allgather (gather to rank 0, then a framed broadcast) finishes in
// O(log P) rounds but funnels the whole payload through a root: for P blocks
// of n bytes the root touches O(P*n) bytes, the classic root hotspot. The
// ring trades rounds for bandwidth: P-1 steps in which every rank forwards
// exactly one block to its successor, so no rank ever touches more than ~2x
// its share of the data. The crossover is payload-size dependent: small
// payloads are latency-dominated and want the tree, large payloads are
// bandwidth-dominated and want the ring (see DESIGN.md "Collective
// algorithms"). Allreduce has no ring: measured on real processes the tree
// won at every size, so it is the only Allreduce.

// EnvCollRingThreshold is the environment variable holding the Allgather
// tree-to-ring crossover in bytes. An Allgather whose largest per-rank block
// is at least the threshold takes the ring path. 0 forces the ring, a
// negative value disables it, unset or unparsable falls back to
// DefaultRingThreshold.
const EnvCollRingThreshold = "MPH_COLL_RING_THRESHOLD"

// DefaultRingThreshold is the default Allgather tree-to-ring crossover in
// bytes, chosen from the C1 sweep in EXPERIMENTS.md: below ~8 KiB the
// log-depth tree wins on latency, above it the ring wins on bandwidth.
const DefaultRingThreshold = 8 << 10

// ringThresholdFromEnv parses EnvCollRingThreshold once per Env.
func ringThresholdFromEnv() int {
	v := os.Getenv(EnvCollRingThreshold)
	if v == "" {
		return DefaultRingThreshold
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return DefaultRingThreshold
	}
	return n
}

// useRing is the selector: it reports whether an Allgather whose largest
// block is decisionBytes should take the ring path. Every rank of a
// communicator must reach the same verdict, so the caller feeds it the
// globally agreed size from exchangeSizes.
func (c *Comm) useRing(decisionBytes int) bool {
	if len(c.group) < 2 {
		return false
	}
	t := c.env.ringThreshold
	if t < 0 {
		return false
	}
	return decisionBytes >= t
}

// tagCollSizes carries the Bruck size exchange that precedes Allgather;
// tagRingAllgather carries the per-step block traffic of the ring.
// They live here rather than in the iota block of collective.go so the
// block's comment about distinct ops keeping distinct tags stays exact.
const (
	tagCollSizes = 200 + iota
	tagRingAllgather
)

// exchangeSizes gives every rank the payload length of every other rank
// using a Bruck dissemination: ceil(log2 P) rounds of small messages with no
// root hotspot. Round k sends the blocks this rank already knows to rank
// r-2^k and learns 2^k more from rank r+2^k. It is what lets Allgather both
// handle per-rank size variation (gatherv) and make a globally consistent
// algorithm choice.
func (c *Comm) exchangeSizes(mine int) ([]int, error) {
	size := len(c.group)
	if size == 1 {
		return []int{mine}, nil
	}
	// known[i] is the payload length of rank (c.rank+i) % size.
	known := make([]int64, 1, size)
	known[0] = int64(mine)
	for dist := 1; dist < size; dist *= 2 {
		cnt := dist
		if cnt > size-dist {
			cnt = size - dist
		}
		to := (c.rank - dist + size) % size
		from := (c.rank + dist) % size
		req := c.irecvCtx(c.cctx, from, tagCollSizes)
		if err := c.sendCtx(c.cctx, to, tagCollSizes, encodeInts(known[:cnt]), nil); err != nil {
			return nil, fmt.Errorf("mpi: size exchange send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: size exchange recv: %w", err)
		}
		vals, err := decodeInts(in)
		if err != nil {
			return nil, fmt.Errorf("mpi: size exchange: %w", err)
		}
		if len(vals) != cnt {
			return nil, fmt.Errorf("mpi: size exchange: got %d sizes from rank %d, want %d", len(vals), from, cnt)
		}
		known = append(known, vals...)
	}
	sizes := make([]int, size)
	for i, v := range known {
		if v < 0 {
			return nil, fmt.Errorf("mpi: size exchange: negative size %d", v)
		}
		sizes[(c.rank+i)%size] = int(v)
	}
	return sizes, nil
}

// allgatherRing is the bandwidth-optimal allgather: P-1 steps in which every
// rank forwards one block to its ring successor and receives one from its
// predecessor. sizes (from exchangeSizes) holds every rank's block length,
// used to validate each arriving block. Per-rank traffic is the sum of the
// other ranks' blocks — no rank touches O(P) times its share.
func (c *Comm) allgatherRing(data []byte, sizes []int) ([][]byte, error) {
	size := len(c.group)
	out := make([][]byte, size)
	own := make([]byte, len(data))
	copy(own, data)
	out[c.rank] = own
	next := (c.rank + 1) % size
	prev := (c.rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := ((c.rank-step)%size + size) % size
		recvIdx := ((c.rank-step-1)%size + size) % size
		req := c.irecvCtx(c.cctx, prev, tagRingAllgather)
		if err := c.sendCtx(c.cctx, next, tagRingAllgather, out[sendIdx], nil); err != nil {
			return nil, fmt.Errorf("mpi: ring allgather send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: ring allgather recv: %w", err)
		}
		if len(in) != sizes[recvIdx] {
			return nil, fmt.Errorf("mpi: ring allgather: block of rank %d is %d bytes, size exchange promised %d", recvIdx, len(in), sizes[recvIdx])
		}
		out[recvIdx] = in
	}
	return out, nil
}
