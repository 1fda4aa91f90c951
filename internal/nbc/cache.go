package nbc

// The schedule cache: compiled collective schedules keyed by the shape
// of the call, so a repeated collective replays the compiled round
// structure instead of rebuilding it. The paper's Section 4 charges
// MPI's per-call setup against the wire time; caching the schedule DAG
// removes exactly that setup from every call after the first.
//
// The key holds no buffer address: a call with fresh buffers of the
// same shape (every AllreduceFloat64) hits, and the cached schedule is
// rebound to the caller's buffers before it replays. The compilers
// capture sub-slices of the caller's send and receive buffers inside
// the compiled steps; rebinding moves each such slice to the same
// offset of the new buffers and leaves the compiler's scratch buffers
// alone. So the cache holds one entry per (collective, shape).
//
// The cache is owned by the calling rank (collectives on one
// communicator are serialized per rank), so no locking is needed.

import (
	"reflect"
	"unsafe"
)

// CacheKind discriminates the collective family a cached schedule
// implements — two collectives with equal shapes (say Ibcast and
// Iallreduce over the same length) must never collide.
type CacheKind uint8

// Cached collective families.
const (
	CacheBarrier CacheKind = iota
	CacheBcast
	CacheReduce
	CacheAllreduce
	CacheAllgather
	CacheAlltoall
	CacheGather
	CacheScatter
	CacheReduceScatterBlock
	CacheScan
	CacheExscan
	CacheGatherv
	CacheScatterv
	CacheAllgatherv
	CacheNeighborAllgather
	CacheNeighborAlltoall
)

// CacheKey identifies one compiled schedule by everything that shaped
// its compilation. The caller fills the collective's own fields; Get
// and Put fill the buffer shape (lengths and aliasing) from the
// buffers they are handed. Value comparability (==) makes the key
// directly usable as a map key.
type CacheKey struct {
	Kind CacheKind
	Algo int     // resolved algorithm id (metrics.Coll*)
	Root int     // rooted collectives; -1 otherwise
	Op   uint8   // reduction op; 0 otherwise
	Elem uintptr // element datatype identity; 0 otherwise
	// Shape folds in any remaining shape the lengths miss — the
	// counts/displacements of ragged (v-variant) collectives.
	Shape uint64

	SendLen, RecvLen int
	// Overlap is set when the send and receive buffers share memory
	// (an in-place call); Delta is then the receive buffer's byte
	// offset from the send buffer's start. Rebinding is only sound
	// between calls that alias alike.
	Overlap bool
	Delta   int
}

// ShapeHash folds integer shape vectors (counts, displacements) into a
// CacheKey.Shape value with FNV-1a.
func ShapeHash(vecs ...[]int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vecs {
		for _, x := range v {
			h ^= uint64(x)
			h *= 1099511628211
		}
		h ^= 0xff // separator so ([1],[2]) differs from ([1,2])
		h *= 1099511628211
	}
	return h
}

// PtrKey derives an identity for a pointer-shaped key component (e.g.
// the element datatype) via reflection, avoiding unsafe on arbitrary
// types.
func PtrKey(v any) uintptr {
	if v == nil {
		return 0
	}
	return reflect.ValueOf(v).Pointer()
}

// base returns the address of b's first byte (0 for a nil slice).
func base(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// withShape completes key with the buffer shape of (send, recv).
func withShape(key CacheKey, send, recv []byte) CacheKey {
	key.SendLen, key.RecvLen = len(send), len(recv)
	if len(send) > 0 && len(recv) > 0 {
		s, r := base(send), base(recv)
		if r < s+uintptr(len(send)) && s < r+uintptr(len(recv)) {
			key.Overlap, key.Delta = true, int(r-s)
		}
	}
	return key
}

// Cache maps keys to compiled schedules. The zero value is ready to
// use. One cache hangs off each public communicator, created lazily on
// the first collective.
type Cache struct {
	m      map[CacheKey]*Schedule
	hits   int64
	misses int64
}

// Get returns the cached schedule for key and the buffers (send, recv)
// if one exists and is not currently running, rebound to those
// buffers. A Running schedule cannot be replayed — the caller started
// the same collective twice before finishing the first — so the lookup
// deliberately misses and the caller compiles a fresh schedule for the
// overlapping call.
func (c *Cache) Get(key CacheKey, send, recv []byte) (*Schedule, bool) {
	s, ok := c.m[withShape(key, send, recv)]
	if ok && !s.Running() {
		c.hits++
		s.rebind(send, recv)
		return s, true
	}
	c.misses++
	return nil, false
}

// Put stores a schedule freshly compiled against (send, recv) under
// key, replacing any previous (necessarily running, per Get) occupant.
func (c *Cache) Put(key CacheKey, s *Schedule, send, recv []byte) {
	if c.m == nil {
		c.m = make(map[CacheKey]*Schedule)
	}
	s.bound = [2][]byte{send, recv}
	c.m[withShape(key, send, recv)] = s
}

// Len reports the number of cached schedules.
func (c *Cache) Len() int { return len(c.m) }

// Stats returns the lifetime hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }

// rebind moves every step's view of the previously bound caller
// buffers to the same offsets of (send, recv). Slices outside both —
// the compiler's scratch buffers — are kept. A no-op when the bases
// already match, which is every replay on unchanged buffers.
func (s *Schedule) rebind(send, recv []byte) {
	old := s.bound
	if base(old[0]) == base(send) && base(old[1]) == base(recv) {
		return
	}
	to := [2][]byte{send, recv}
	move := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		p := base(b)
		for i, o := range old {
			if len(o) == 0 {
				continue
			}
			if ob := base(o); p >= ob && p+uintptr(len(b)) <= ob+uintptr(len(o)) {
				off := int(p - ob)
				return to[i][off : off+len(b)]
			}
		}
		return b
	}
	moveStep := func(st *step) {
		st.buf, st.dst, st.src = move(st.buf), move(st.dst), move(st.src)
	}
	for i := range s.rounds {
		for j := range s.rounds[i].comm {
			moveStep(&s.rounds[i].comm[j])
		}
		for j := range s.rounds[i].local {
			moveStep(&s.rounds[i].local[j])
		}
	}
	for i := range s.prologue {
		moveStep(&s.prologue[i])
	}
	s.bound = to
}
