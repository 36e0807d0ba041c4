// Package emu implements the functional (architectural) emulator for the
// ISA: a sparse 64-bit memory, architectural register state, single-step
// execution with full instruction semantics, and a pull-based dynamic
// instruction stream used to drive the timing models.
package emu

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"fxa/internal/asm"
)

const pageBits = 12
const pageSize = 1 << pageBits

// lowKeys is the number of page keys resolved through the flat low-region
// page table: one pointer-array index instead of a map lookup. 1<<15 keys
// × 4 KiB = 128 MiB, which covers the assembler/workload address-space
// conventions (code at 0x1000, data region ceiling 0x4000000) with room
// to spare; anything above falls back to the sparse map.
const lowKeys = 1 << 15

// page is one 4 KiB unit of memory. Pages are shared between a Memory and
// its clones (copy-on-write): refs counts how many memories reference the
// page, and a write through any of them while refs > 1 first detaches a
// private copy. The data of a shared page is therefore immutable, which is
// what makes concurrent execution of clones safe.
type page struct {
	// refs is the number of memories referencing this page. Pages are
	// created with refs == 1; Clone increments, copy-on-write detach
	// decrements. Atomic because clones may execute on other goroutines.
	refs atomic.Int32
	// code marks that a predecode table has been built from this page
	// (see predecode.go); writes to such a page must fire the
	// code-write hook so stale predecoded instructions are dropped.
	// Atomic for the same reason as refs: a clone may consult the flag
	// while another machine sets it.
	code atomic.Bool
	data [pageSize]byte
}

func newPage() *page {
	p := new(page)
	p.refs.Store(1)
	return p
}

// Memory is a sparse, paged, little-endian byte-addressable memory.
// Reads of unwritten locations return zero.
//
// A Memory must only be accessed from one goroutine at a time, but
// independent clones may execute concurrently: cloned pages are shared
// copy-on-write with atomic reference counts, and a shared page's bytes
// are never mutated.
type Memory struct {
	// low is the flat page table for keys below lowKeys — the hot
	// region. high is the sparse fallback for the rest of the 64-bit
	// space.
	low  []*page
	high map[uint64]*page

	// onCodeWrite, when non-nil, is invoked with the page key before a
	// write lands in a page whose code flag is set. The hook is
	// deliberately not copied by Clone: it closes over the owning
	// Machine's predecode state (see Machine.Clone).
	onCodeWrite func(key uint64)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{low: make([]*page, lowKeys)}
}

// rpage resolves the page containing addr for a read, or nil when the
// page is not resident.
func (m *Memory) rpage(addr uint64) *page {
	key := addr >> pageBits
	if key < lowKeys {
		return m.low[key]
	}
	return m.high[key]
}

// lookup returns the resident page for key, or nil.
func (m *Memory) lookup(key uint64) *page {
	if key < lowKeys {
		return m.low[key]
	}
	return m.high[key]
}

// install makes p the resident page for key.
func (m *Memory) install(key uint64, p *page) {
	if key < lowKeys {
		m.low[key] = p
		return
	}
	if m.high == nil {
		m.high = make(map[uint64]*page)
	}
	m.high[key] = p
}

// wpage resolves a writable (private) page containing addr, creating or
// copy-on-write-detaching it as needed. The fast path requires the page
// to be resident, unshared and free of predecoded code; everything else
// goes through wpageSlow.
func (m *Memory) wpage(addr uint64) *page {
	key := addr >> pageBits
	if key < lowKeys {
		if p := m.low[key]; p != nil && p.refs.Load() == 1 && !p.code.Load() {
			return p
		}
	}
	return m.wpageSlow(key)
}

func (m *Memory) wpageSlow(key uint64) *page {
	p := m.lookup(key)
	switch {
	case p == nil:
		p = newPage()
		m.install(key, p)
	case p.refs.Load() > 1:
		// Copy on write: detach a private copy. The shared original is
		// only ever read while shared, so copying its bytes races with
		// nothing; the atomic decrement publishes the detach.
		np := newPage()
		np.data = p.data
		np.code.Store(p.code.Load())
		p.refs.Add(-1)
		m.install(key, np)
		p = np
	}
	if p.code.Load() {
		// The page holds (or held) predecoded instructions: let the
		// owning machine drop them, then clear the flag — the table is
		// gone, so further writes need no hook until the page is
		// predecoded again.
		if m.onCodeWrite != nil {
			m.onCodeWrite(key)
		}
		p.code.Store(false)
	}
	return p
}

// codePage returns the bytes of page key for predecoding, creating the
// page if absent, and marks it so that any later write through this or a
// cloned memory fires the code-write hook. The caller must treat the
// returned array as read-only.
func (m *Memory) codePage(key uint64) *[pageSize]byte {
	p := m.lookup(key)
	if p == nil {
		p = newPage()
		m.install(key, p)
	}
	p.code.Store(true)
	return &p.data
}

// setCodeWriteHook registers fn to be called with the page key whenever a
// write touches a page holding predecoded code. Used by Machine to keep
// its predecode tables coherent with self-modifying code.
func (m *Memory) setCodeWriteHook(fn func(key uint64)) {
	m.onCodeWrite = fn
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	if key := addr >> pageBits; key < lowKeys {
		if p := m.low[key]; p != nil {
			return p.data[addr&(pageSize-1)]
		}
		return 0
	}
	return m.load8Slow(addr)
}

func (m *Memory) load8Slow(addr uint64) byte {
	p := m.high[addr>>pageBits]
	if p == nil {
		return 0
	}
	return p.data[addr&(pageSize-1)]
}

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.wpage(addr).data[addr&(pageSize-1)] = b
}

// Read64 loads the 8-byte little-endian value at addr. The access may
// straddle a page boundary.
func (m *Memory) Read64(addr uint64) uint64 {
	if key := addr >> pageBits; key < lowKeys && addr&(pageSize-1) <= pageSize-8 {
		if p := m.low[key]; p != nil {
			off := addr & (pageSize - 1)
			return binary.LittleEndian.Uint64(p.data[off : off+8])
		}
		return 0
	}
	return m.read64Slow(addr)
}

func (m *Memory) read64Slow(addr uint64) uint64 {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p := m.rpage(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p.data[off : off+8])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Load8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores the 8-byte little-endian value v at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.wpage(addr).data[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Store8(addr+i, byte(v>>(8*i)))
	}
}

// Read16 loads the 2-byte little-endian value at addr.
func (m *Memory) Read16(addr uint64) uint16 {
	return uint16(m.Load8(addr)) | uint16(m.Load8(addr+1))<<8
}

// Write16 stores the 2-byte little-endian value v at addr.
func (m *Memory) Write16(addr uint64, v uint16) {
	m.Store8(addr, byte(v))
	m.Store8(addr+1, byte(v>>8))
}

// Write32 stores the 4-byte little-endian value v at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.wpage(addr).data[off:off+4], v)
		return
	}
	for i := uint64(0); i < 4; i++ {
		m.Store8(addr+i, byte(v>>(8*i)))
	}
}

// Read32 loads the 4-byte little-endian value at addr (used for
// instruction fetch).
func (m *Memory) Read32(addr uint64) uint32 {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.rpage(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p.data[off : off+4])
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Load8(addr+i)) << (8 * i)
	}
	return v
}

// loadSegments writes a program image into memory. Every page the
// segments touch that is not yet resident is taken from one []page slab
// — a single allocation for the whole image instead of one per 4 KiB —
// and each page's share of a segment is then copied in (Data) or
// generated in place (Fill), with no intermediate buffer. Slab pages are
// ordinary private pages (refs == 1): copy-on-write, Clone and the
// access fast paths treat them exactly like pages from newPage. The slab
// stays reachable while any of its pages is resident in some memory.
func (m *Memory) loadSegments(segs []asm.Segment) {
	// Pass 1: count the absent pages. Segments are sorted and disjoint,
	// so a page shared by two segments is the previous segment's last.
	n := 0
	last := ^uint64(0)
	for _, s := range segs {
		size := s.Len()
		if size == 0 {
			continue
		}
		for k, hi := s.Addr>>pageBits, (s.Addr+size-1)>>pageBits; k <= hi; k++ {
			if k != last && m.lookup(k) == nil {
				n++
			}
			last = k
		}
	}
	// Pass 2: install slab pages and write each page's bytes. Anything
	// the count missed (an unsorted image) falls back to newPage inside
	// wpage.
	slab := make([]page, n)
	for _, s := range segs {
		size := s.Len()
		for off := uint64(0); off < size; {
			addr := s.Addr + off
			if len(slab) > 0 && m.lookup(addr>>pageBits) == nil {
				p := &slab[0]
				slab = slab[1:]
				p.refs.Store(1)
				m.install(addr>>pageBits, p)
			}
			dst := m.wpage(addr).data[addr&(pageSize-1):]
			if rem := size - off; uint64(len(dst)) > rem {
				dst = dst[:rem]
			}
			if s.Fill != nil {
				s.Fill(off, dst)
			} else {
				copy(dst, s.Data[off:])
			}
			off += uint64(len(dst))
		}
	}
}

// forEachPage calls fn for every resident page in ascending key order.
func (m *Memory) forEachPage(fn func(key uint64, p *page)) {
	for key, p := range m.low {
		if p != nil {
			fn(uint64(key), p)
		}
	}
	if len(m.high) > 0 {
		keys := make([]uint64, 0, len(m.high))
		for k := range m.high {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fn(k, m.high[k])
		}
	}
}

// Footprint returns the number of resident pages (for tests/statistics).
func (m *Memory) Footprint() int {
	n := len(m.high)
	for _, p := range m.low {
		if p != nil {
			n++
		}
	}
	return n
}

// SharedPages returns how many resident pages are currently shared with
// at least one other memory (copy-on-write, for tests/statistics).
func (m *Memory) SharedPages() int {
	n := 0
	m.forEachPage(func(_ uint64, p *page) {
		if p.refs.Load() > 1 {
			n++
		}
	})
	return n
}

// Diff compares two memories byte-for-byte and returns the address of the
// first differing byte (lowest address). Pages resident in only one memory
// compare against zeroes, matching read semantics: an unwritten location
// reads as zero, so an all-zero resident page equals an absent one.
func (m *Memory) Diff(o *Memory) (addr uint64, differs bool) {
	seen := make(map[uint64]bool)
	keys := make([]uint64, 0, 64)
	collect := func(key uint64, _ *page) {
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	m.forEachPage(collect)
	o.forEachPage(collect)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var zero [pageSize]byte
	for _, k := range keys {
		a, b := &zero, &zero
		if p := m.lookup(k); p != nil {
			a = &p.data
		}
		if p := o.lookup(k); p != nil {
			b = &p.data
		}
		if *a == *b {
			continue
		}
		for i := 0; i < pageSize; i++ {
			if a[i] != b[i] {
				return k<<pageBits + uint64(i), true
			}
		}
	}
	return 0, false
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(o *Memory) bool {
	_, differs := m.Diff(o)
	return !differs
}

// Clone returns an independent copy-on-write snapshot: the clone shares
// every resident page with the original, and a page is copied only when
// either side first writes to it. The cost is one page-table copy —
// allocations are independent of how much memory is resident — instead of
// the seed's full page-by-page byte copy. Writes to the clone never affect
// the original (and vice versa), and the two may execute on different
// goroutines. The code-write hook is deliberately not inherited; the
// cloning Machine installs its own.
func (m *Memory) Clone() *Memory {
	c := &Memory{low: make([]*page, lowKeys)}
	copy(c.low, m.low)
	for _, p := range c.low {
		if p != nil {
			p.refs.Add(1)
		}
	}
	if len(m.high) > 0 {
		c.high = make(map[uint64]*page, len(m.high))
		for k, p := range m.high {
			p.refs.Add(1)
			c.high[k] = p
		}
	}
	return c
}
