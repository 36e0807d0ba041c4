package pipeline

import (
	"fxa/internal/decodecache"
	"fxa/internal/emu"
)

// InOrderUop is one fetched, not yet issued instruction of a scoreboarded
// in-order core (internal/inorder).
type InOrderUop struct {
	Rec emu.Record
	// St is the static decode template stamped at fetch from the per-PC
	// decode cache; issue reads register/class/latency facts from it
	// instead of re-deriving them from Rec.Inst every attempt.
	St         decodecache.Static
	FetchCycle int64
	Mispredict bool
}

// UopRing is the in-order cores' fetch queue: a fixed-capacity FIFO that
// holds InOrderUop values inline. The backing array is allocated once at
// core construction, so fetch and issue do no heap work per instruction
// (DESIGN.md §8.2) — no uop allocation at fetch and no backing-array
// drift from reslicing at issue.
//
// Push hands out the tail slot for the caller to fill in place; Front
// returns the head slot. A slot released by PopFront keeps its contents
// until a later Push reuses it, so the pointer Front returned stays valid
// through the rest of an issue stage that pushes nothing.
type UopRing struct {
	buf  []InOrderUop
	head int
	n    int
}

// NewUopRing returns an empty ring with room for capacity entries
// (minimum 1).
func NewUopRing(capacity int) UopRing {
	if capacity < 1 {
		capacity = 1
	}
	return UopRing{buf: make([]InOrderUop, capacity)}
}

// Len returns the number of queued entries.
func (r *UopRing) Len() int { return r.n }

// Room returns how many more entries fit.
func (r *UopRing) Room() int { return len(r.buf) - r.n }

// Front returns the oldest entry. The ring must not be empty.
func (r *UopRing) Front() *InOrderUop { return &r.buf[r.head] }

// Push appends an entry and returns its slot for the caller to fill. The
// fetch stage never admits more than Room entries, so a full ring is a
// caller bug.
func (r *UopRing) Push() *InOrderUop {
	if r.n == len(r.buf) {
		panic("pipeline: UopRing overflow")
	}
	j := r.head + r.n
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	r.n++
	return &r.buf[j]
}

// PopFront removes the oldest entry.
func (r *UopRing) PopFront() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// Reset empties the ring.
func (r *UopRing) Reset() { r.head, r.n = 0, 0 }
