package workload

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// FuzzSegmentFill checks random access into a generated data table:
// filling any byte range of a catalog proxy's table, at any alignment
// and across page boundaries, must give exactly that slice of the whole
// table. The seed corpus runs under plain `go test` and covers both
// table kinds (random fill and chase) at aligned, unaligned,
// page-straddling and end-of-table ranges.
func FuzzSegmentFill(f *testing.F) {
	const (
		astar      = 0 // chase, 1 MiB
		hmmer      = 5 // random fill, 64 KiB
		libquantum = 6 // random fill, 4 MiB
		mcf        = 7 // chase, 8 MiB
	)
	f.Add(uint8(hmmer), uint64(0), uint16(4096))          // one whole page
	f.Add(uint8(hmmer), uint64(4093), uint16(10))         // unaligned, straddles a page
	f.Add(uint8(hmmer), uint64(65536-3), uint16(3))       // last bytes of the table
	f.Add(uint8(libquantum), uint64(12345), uint16(9000)) // unaligned, spans three pages
	f.Add(uint8(mcf), uint64(8<<20-4097), uint16(4097))   // chase, straddles into the last page
	f.Add(uint8(mcf), uint64(5), uint16(1))               // chase, one byte inside a word
	f.Add(uint8(astar), uint64(4096*7), uint16(0))        // empty range

	cat := Catalog()
	tables := map[int][]byte{}
	f.Fuzz(func(t *testing.T, proxy uint8, off uint64, n uint16) {
		i := int(proxy) % len(cat)
		prog, err := cat[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		seg := dataSegment(t, prog)
		want, ok := tables[i]
		if !ok {
			want = seg.Bytes()
			tables[i] = want
		}
		off %= seg.Len()
		end := min(off+uint64(n), seg.Len())
		got := bytes.Repeat([]byte{0xa5}, int(end-off))
		seg.Fill(off, got)
		if !bytes.Equal(got, want[off:end]) {
			t.Errorf("%s: Fill(%d, %d bytes) differs from the table", cat[i].Name, off, end-off)
		}
	})
}

// TestBuildAllocsIndependentOfFootprint: once a catalog proxy's skeleton
// is memoized, Build allocates only the kernel and its 64 KiB branch
// table, not anything the size of the 8 MiB data footprint.
func TestBuildAllocsIndependentOfFootprint(t *testing.T) {
	for _, name := range []string{"mcf", "milc"} {
		p, _ := ByName(name)
		if _, err := p.Build(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := p.Build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: Build allocated %d bytes, want < 1 MiB (footprint %d)", name, got, p.Footprint)
		}
	}
}

// TestConcurrentBuildsAgree builds one catalog proxy and one custom
// proxy from several goroutines at once, as sweep workers do: the
// catalog proxy's skeleton is derived once, on first use, and shared.
// Every build must generate the table a fresh derivation does. Under
// -race (make race) this also checks the memo and the shared skeleton.
func TestConcurrentBuildsAgree(t *testing.T) {
	omnetpp, _ := ByName("omnetpp")
	custom := omnetpp
	custom.Name = "omnetpp-custom"
	for _, p := range []Params{omnetpp, custom} {
		want := make([]byte, p.Footprint)
		p.tableKey().derive().fill(0, want)
		tables := make([][]byte, 4)
		var wg sync.WaitGroup
		for i := range tables {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if prog, err := p.Build(); err == nil {
					tables[i] = prog.Segments[len(prog.Segments)-1].Bytes()
				} else {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		for i, got := range tables {
			if !bytes.Equal(got, want) {
				t.Errorf("%s: concurrent build %d differs from a serial one", p.Name, i)
			}
		}
	}
}
