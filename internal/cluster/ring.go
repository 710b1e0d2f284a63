// Package cluster is the distribution layer over flodbd nodes: a
// consistent-hash ring with virtual nodes maps every key to R replica
// owners, and a coordinator-side Client implements the full kv.Store
// contract over the pooled internal/client — quorum writes with hinted
// handoff for unreachable owners, quorum reads with newest-version-wins
// read-repair, scans that merge the members' cursors with kv.Merge under
// the same newest-version-wins rule, and a heartbeat prober that marks
// members down after K failed probes and up (replaying their hints) on
// recovery. Membership is a static seed list; the ring is deterministic
// from it, so every coordinator over the same list routes identically
// with no external consensus.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// Member is one flodbd node: a STABLE identity plus its current address.
// The ring hashes IDs, not addresses, so a node that restarts on a new
// port (or is moved) keeps its key ranges.
type Member struct {
	ID   string
	Addr string
}

// DefaultVnodes is the virtual-node count per member: high enough that
// the max/min key-share ratio stays under 1.5× (the balance the ring
// tests pin), low enough that ring construction and lookup stay trivial.
const DefaultVnodes = 128

// Ring maps keys onto members by consistent hashing: every member
// projects Vnodes points onto the 64-bit hash circle, and a key belongs
// to the first R distinct members at or clockwise-after its hash.
type Ring struct {
	members  []Member // sorted by ID
	replicas int
	vnodes   int
	points   []ringPoint // sorted by hash
	epoch    uint64
}

type ringPoint struct {
	hash   uint64
	member int32
}

// NewRing builds the ring. Members are sorted by ID internally, so any
// permutation of the same membership yields the identical ring.
func NewRing(members []Member, vnodes, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	if replicas <= 0 || replicas > len(members) {
		return nil, fmt.Errorf("cluster: replication factor %d over %d members", replicas, len(members))
	}
	sorted := append([]Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := range sorted {
		if sorted[i].ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID")
		}
		if i > 0 && sorted[i].ID == sorted[i-1].ID {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", sorted[i].ID)
		}
	}
	r := &Ring{
		members:  sorted,
		replicas: replicas,
		vnodes:   vnodes,
		points:   make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for mi := range sorted {
		for v := 0; v < vnodes; v++ {
			// FNV alone leaves the near-identical "id#N" strings clustered
			// on the circle (max/min share blows past 1.5× at 128 vnodes);
			// the avalanche finalizer spreads them.
			h := mix64(fnv64s(sorted[mi].ID + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: h, member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions resolve by member order so the ring stays
		// deterministic across builds.
		return r.points[i].member < r.points[j].member
	})
	// The epoch fingerprints the whole configuration: same members, vnode
	// count and replication factor ⇒ same epoch on every coordinator.
	e := fnv64s("ring-v1|" + strconv.Itoa(replicas) + "|" + strconv.Itoa(vnodes))
	for _, m := range sorted {
		e = fnv64add(e, m.ID)
		e = fnv64add(e, "|")
	}
	r.epoch = e
	return r, nil
}

// Members returns the membership in ring (ID-sorted) order.
func (r *Ring) Members() []Member { return r.members }

// Replicas returns the replication factor R.
func (r *Ring) Replicas() int { return r.replicas }

// Epoch is the configuration fingerprint peers compare in health probes.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Owners returns the indexes (into Members()) of the R distinct members
// owning key, primary first: the successor walk from the key's hash.
func (r *Ring) Owners(key []byte) []int {
	return r.ownersAt(mix64(fnv64b(key)))
}

func (r *Ring) ownersAt(h uint64) []int {
	// First point with hash >= h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]int, 0, r.replicas)
	seen := make(map[int32]struct{}, r.replicas)
	for n := 0; n < len(r.points) && len(owners) < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		if _, dup := seen[p.member]; dup {
			continue
		}
		seen[p.member] = struct{}{}
		owners = append(owners, int(p.member))
	}
	return owners
}

// Shares computes each member's EXACT primary key-share: the fraction of
// the hash circle whose successor point belongs to it. This is the
// balance the vnode count buys; the ring tests pin max/min < 1.5.
func (r *Ring) Shares() map[string]float64 {
	arcs := make([]uint64, len(r.members))
	// The arc (points[i-1].hash, points[i].hash] belongs to points[i];
	// the wraparound arc (last, first] belongs to points[0].
	for i := range r.points {
		var width uint64
		if i == 0 {
			width = r.points[0].hash - r.points[len(r.points)-1].hash // wraps mod 2^64
		} else {
			width = r.points[i].hash - r.points[i-1].hash
		}
		arcs[r.points[i].member] += width
	}
	shares := make(map[string]float64, len(r.members))
	for mi, m := range r.members {
		shares[m.ID] = float64(arcs[mi]) / (1 << 63) / 2
	}
	return shares
}

// MovedShare estimates (by deterministic sampling) the fraction of the
// keyspace whose OWNER SET changes between two rings — the data motion a
// membership change would cost. flodbctl's rebalance preview prints it.
func MovedShare(from, to *Ring, samples int) float64 {
	if samples <= 0 {
		samples = 65536
	}
	step := ^uint64(0) / uint64(samples)
	moved := 0
	for i := 0; i < samples; i++ {
		h := uint64(i) * step
		if !sameOwners(from, to, h) {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}

func sameOwners(a, b *Ring, h uint64) bool {
	ao, bo := a.ownersAt(h), b.ownersAt(h)
	if len(ao) != len(bo) {
		return false
	}
	// Compare as ID sets: replica order is a routing detail, membership
	// of the owner set is what decides whether data must move.
	ids := make(map[string]struct{}, len(ao))
	for _, i := range ao {
		ids[a.members[i].ID] = struct{}{}
	}
	for _, i := range bo {
		if _, ok := ids[b.members[i].ID]; !ok {
			return false
		}
	}
	return true
}

// --- FNV-1a 64 ---------------------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64b(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func fnv64s(s string) uint64 {
	return fnv64add(fnvOffset64, s)
}

func fnv64add(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a fixed bijective avalanche that
// turns FNV's weakly-mixed low bits into a uniform circle position.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
