package workload

import (
	"encoding/binary"
	"sync"
)

// A proxy's data table — random payload words, or for Chase a random
// pointer cycle covering the footprint in which each word holds the
// absolute address of the next element — is never stored. Build hands
// the loader a generated segment (asm.Segment.Fill) that writes the
// table's bytes straight into emulator pages. Generation needs, beyond
// the proxy's name and footprint, a small skeleton derived once:
//
//   - a random-fill table keeps the xorshift state at each 4 KiB page
//     boundary (8 B per page), so any page is produced on its own;
//   - a chase table keeps the Sattolo cycle as a successor array (4 B
//     per 8 B slot), which is all of the shuffle the bytes depend on.

// wordsPerPage is the number of 8-byte table words between two saved
// xorshift states.
const wordsPerPage = 4096 / 8

// tableKey is everything a proxy's data table depends on.
type tableKey struct {
	name      string
	footprint int
	chase     bool
}

func (p Params) tableKey() tableKey {
	return tableKey{name: p.Name, footprint: p.Footprint, chase: p.Chase > 0 || p.Pattern == Chase}
}

// skeleton is the derived state a data table is generated from. It is
// immutable once derived, so fill is safe from any number of goroutines.
type skeleton struct {
	size uint64
	// states[k] is the xorshift state before word k*wordsPerPage
	// (random fill only).
	states []uint64
	// succ[i] is the slot that follows slot i on the pointer cycle
	// (chase only).
	succ []uint32
}

// derive computes the skeleton of k's table. Validate guarantees a
// power-of-two footprint of at least 4096 bytes and at most dataRegion,
// so the table is whole pages and slot numbers fit in uint32.
func (k tableKey) derive() *skeleton {
	n := k.footprint / 8
	r := newRNG(k.name + "/data")
	sk := &skeleton{size: uint64(k.footprint)}
	if !k.chase {
		sk.states = make([]uint64, n/wordsPerPage)
		for i := range sk.states {
			sk.states[i] = uint64(*r)
			for j := 0; j < wordsPerPage; j++ {
				r.next()
			}
		}
		return sk
	}
	// Sattolo's algorithm: a single cycle over all n slots.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.next() % uint64(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Chain slot perm[i] -> perm[i+1]: one cycle over the footprint.
	sk.succ = make([]uint32, n)
	for i := 0; i < n; i++ {
		sk.succ[perm[i]] = perm[(i+1)%n]
	}
	return sk
}

// fill writes the table's bytes [off, off+len(dst)) into dst: whole
// words in place, and a partial word at either end through a buffer.
func (sk *skeleton) fill(off uint64, dst []byte) {
	var buf [8]byte
	if head := off % 8; head != 0 {
		sk.words(off/8, buf[:])
		n := copy(dst, buf[head:])
		dst, off = dst[n:], off+uint64(n)
	}
	whole := len(dst) &^ 7
	sk.words(off/8, dst[:whole])
	if tail := dst[whole:]; len(tail) > 0 {
		sk.words(off/8+uint64(whole/8), buf[:])
		copy(tail, buf[:])
	}
}

// words writes len(dst)/8 table words, from word w on, into dst.
func (sk *skeleton) words(w uint64, dst []byte) {
	if len(dst) < 8 {
		return
	}
	if sk.succ != nil {
		for i := 0; i+8 <= len(dst); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], dataBase+uint64(sk.succ[w])*8)
			w++
		}
		return
	}
	r := rng(sk.states[w/wordsPerPage])
	for i := w % wordsPerPage; i > 0; i-- {
		r.next()
	}
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], r.next()%4096)
	}
}

// catalogSkeletons memoizes the skeleton of every catalog proxy's table,
// each derived on first use. Only catalog keys are memoized, so the memo
// is bounded by the catalog: about 5.6 MiB, almost all of it the
// successor arrays of the three chase proxies. Custom Params derive
// their skeleton on every Build instead.
var catalogSkeletons = func() map[tableKey]func() *skeleton {
	m := make(map[tableKey]func() *skeleton)
	for _, p := range Catalog() {
		k := p.tableKey()
		m[k] = sync.OnceValue(k.derive)
	}
	return m
}()

// skeleton returns k's skeleton, from the memo when k is a catalog
// proxy's table.
func (k tableKey) skeleton() *skeleton {
	if derive, ok := catalogSkeletons[k]; ok {
		return derive()
	}
	return k.derive()
}
