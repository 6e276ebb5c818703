// Package shard scales gles2gpgpud out to a replica fleet. Its core is a
// consistent-hash ring that places jobs on backends by their affinity key
// (serve.Params.Key — the warm-runner compatibility class), so every
// replica sees a stable subset of the key space and its compiled
// programs, warm runners and resident tensors stay hot for exactly that
// subset. Around the ring sits a fronting router: health-checked
// ejection and readmission, bounded per-replica in-flight windows with
// 429 backpressure, a per-job retry budget with jittered backoff (safe
// because every job is bit-deterministic and side-effect-free — retrying
// is re-running), and graceful shard drain by hash-ring removal.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per replica. 128 points per
// replica bounds the expected per-replica load imbalance to roughly
// 1/sqrt(128) ≈ 9% of fair share (the ring property test pins ±20%).
const DefaultVNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the member names and the vnode count — no process state,
// no insertion-order dependence — so a restarted router reproduces the
// exact placement of its predecessor and replicas keep their key sets
// across router restarts.
//
// Ring is not safe for concurrent mutation; the Router guards it.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]bool
}

type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing builds an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, member: map[string]bool{}}
}

// mix64 is the splitmix64 finalizer. FNV-1a alone clusters structured
// inputs like "replica#17"; the finalizer's avalanche spreads the vnode
// points uniformly around the ring, which is what the ±20% balance
// property rests on.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// Add inserts a replica's virtual nodes. Adding an existing member is a
// no-op, so eject/readmit cycles cannot duplicate points.
func (r *Ring) Add(replica string) {
	if r.member[replica] {
		return
	}
	r.member[replica] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:    hashString(fmt.Sprintf("%s#%d", replica, i)),
			replica: replica,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a replica's virtual nodes. Keys it owned migrate to
// their next clockwise point; every other key keeps its owner — the
// consistent-hashing guarantee the movement property test pins.
func (r *Ring) Remove(replica string) {
	if !r.member[replica] {
		return
	}
	delete(r.member, replica)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.replica != replica {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the replica owning key: the first point clockwise from
// the key's hash. Empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(hashString(key))].replica
}

// LookupN returns up to n distinct replicas in ring order starting at
// the key's owner. The router walks this list when retrying around a
// failed shard: the first healthy candidate is the key's home under the
// current ring, the rest are where the key would migrate if its home
// were ejected — so retries land exactly where the healed ring will
// route, and warmth built during an outage is not wasted.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	start := r.successor(hashString(key))
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// successor finds the index of the first point with hash >= h, wrapping.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
