package emu

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"fxa/internal/asm"
)

// isolationProgram walks an initialized data segment, adding the
// countdown into each word it passes (a read-modify-write of image
// bytes, so slab pages are both read and written).
const isolationProgram = `
	li   r1, 1000
	li   r3, 0x10100
loop:	ld   r2, 0(r3)
	add  r2, r2, r1
	st   r2, 0(r3)
	addi r3, r3, 8
	addi r1, r1, -1
	bne  r1, loop
	halt
`

// isolationImage assembles isolationProgram plus a patterned data
// segment that starts mid-page and spans six page keys (0x10–0x15).
func isolationImage(t *testing.T) *asm.Program {
	t.Helper()
	p := asm.MustAssemble(isolationProgram)
	data := make([]byte, 5*pageSize)
	patternFill(0, data)
	p.Segments = append(p.Segments, asm.Segment{Addr: 0x10100, Data: data})
	return p
}

// TestLoadedMachinesIsolated runs two machines loaded from one Program,
// and a clone of each, concurrently to different instruction counts,
// each finishing with a marker write into a different image page. Every
// machine must equal a serial reference that did the same alone: no
// write, program or marker, shows in another machine, and the Program's
// segment bytes are untouched. Under -race (make race) this also proves
// slab-loaded pages are shared between clones without data races.
func TestLoadedMachinesIsolated(t *testing.T) {
	prog := isolationImage(t)
	orig := make([][]byte, len(prog.Segments))
	for i, s := range prog.Segments {
		orig[i] = bytes.Clone(s.Data)
	}

	a, b := New(prog), New(prog)
	if _, err := a.Run(300); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(600); err != nil {
		t.Fatal(err)
	}
	ms := []*Machine{a, b, a.Clone(), b.Clone()}
	if a.Mem.SharedPages() == 0 {
		t.Fatal("no pages shared after cloning; test is vacuous")
	}
	targets := []uint64{1500, 2500, 2000, 3000}
	// Markers sit in pages 0x11–0x14, beyond the program's walk (< 0x11100).
	marker := func(i int) uint64 { return 0x11800 + uint64(i)*pageSize }

	var wg sync.WaitGroup
	errs := make([]error, len(ms))
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			if _, errs[i] = m.Run(targets[i] - m.InstCount); errs[i] == nil {
				m.Mem.Write64(marker(i), ^m.Mem.Read64(marker(i)))
			}
		}(i, m)
	}
	wg.Wait()

	for i, m := range ms {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		ref := New(prog)
		if _, err := ref.Run(targets[i]); err != nil {
			t.Fatal(err)
		}
		if ref.Mem.Read64(0x10100) == binary.LittleEndian.Uint64(orig[len(orig)-1]) {
			t.Fatal("program never wrote the image; test is vacuous")
		}
		// Until the reference writes it too, the marker is the first (and
		// only) difference.
		if addr, differs := m.Mem.Diff(ref.Mem); !differs || addr != marker(i) {
			t.Errorf("machine %d: Diff = %#x,%v, want its marker %#x", i, addr, differs, marker(i))
		}
		ref.Mem.Write64(marker(i), ^ref.Mem.Read64(marker(i)))
		if !m.Mem.Equal(ref.Mem) {
			addr, _ := m.Mem.Diff(ref.Mem)
			t.Errorf("machine %d differs from its serial reference at %#x", i, addr)
		}
	}
	for i, s := range prog.Segments {
		if !bytes.Equal(s.Data, orig[i]) {
			t.Errorf("segment %d at %#x was modified by the machines", i, s.Addr)
		}
	}
}

// patternFill is a generated segment's Fill: byte i of the segment is
// byte(i*7 + 1).
func patternFill(off uint64, dst []byte) {
	for j := range dst {
		dst[j] = byte((off+uint64(j))*7 + 1)
	}
}

// TestLoadAllocsIndependentOfImageSize: loading allocates one slab for
// the whole image, so New costs the same number of allocations for a
// one-page image as for a 1025-page one, whether the big segment holds
// bytes or is generated. The generated segment starts and ends mid-page,
// shares its first page with the eager segment before it, and must load
// exactly the bytes of its eager form.
func TestLoadAllocsIndependentOfImageSize(t *testing.T) {
	head := asm.Segment{Addr: 0x100000, Data: []byte{1, 2, 3, 4}}
	image := func(data asm.Segment) *asm.Program {
		return &asm.Program{Segments: []asm.Segment{head, data}}
	}
	gen := asm.Segment{Addr: 0x100803, Size: 1024*pageSize - 5, Fill: patternFill}
	small := image(asm.Segment{Addr: 0x100800, Data: []byte{5}})
	eager := image(asm.Segment{Addr: gen.Addr, Data: gen.Bytes()})
	generated := image(gen)

	var sink *Machine
	allocs := func(p *asm.Program) float64 {
		return testing.AllocsPerRun(5, func() { sink = New(p) })
	}
	allocsSmall := allocs(small)
	for _, big := range []struct {
		name string
		prog *asm.Program
	}{{"eager", eager}, {"generated", generated}} {
		allocsBig := allocs(big.prog)
		if sink.Mem.Footprint() != 1025 {
			t.Fatalf("%s: footprint %d, want 1025", big.name, sink.Mem.Footprint())
		}
		if allocsBig != allocsSmall {
			t.Errorf("%s: New allocations scale with image size: %v (1 page) vs %v (1025 pages)", big.name, allocsSmall, allocsBig)
		}
	}
	if e, g := New(eager).Mem, New(generated).Mem; !g.Equal(e) {
		addr, _ := g.Diff(e)
		t.Errorf("generated load differs from eager at %#x", addr)
	}
}
