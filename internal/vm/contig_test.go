package vm

// Tests for the contiguity-preserving frame allocator (AllocContig): frames
// are a pure function of the VPN, so contiguity, determinism, and fork
// independence all follow from position — no allocator state to race on.

import (
	"sync"
	"testing"
)

func contigSpace(t *testing.T) (*AddressSpace, Region) {
	t.Helper()
	as := NewAddressSpace(12, 7, 3) // seed and scatter must be irrelevant under contig
	if err := as.SetAllocMode(AllocContig); err != nil {
		t.Fatal(err)
	}
	r, err := as.Alloc("data", 1<<21) // 512 pages = one full subregion
	if err != nil {
		t.Fatal(err)
	}
	return as, r
}

// TestContigAdjacency: within an aligned ContigRunPages subregion,
// virtually adjacent pages get physically adjacent frames regardless of
// touch order.
func TestContigAdjacency(t *testing.T) {
	as, r := contigSpace(t)
	// Touch back to front so first-touch order opposes virtual order.
	for a := r.End() - 4096; ; a -= 4096 {
		as.Touch(a)
		if a == r.Base {
			break
		}
	}
	prev, ok := as.PageTable().Translate(as.VPNOf(r.Base))
	if !ok {
		t.Fatal("base page unmapped after touch")
	}
	for a := r.Base + 4096; a < r.End(); a += 4096 {
		vpn := as.VPNOf(a)
		ppn, ok := as.PageTable().Translate(vpn)
		if !ok {
			t.Fatalf("vpn %d unmapped", vpn)
		}
		if uint64(vpn)%ContigRunPages != 0 && ppn != prev+1 {
			t.Fatalf("vpn %d -> %d, previous page -> %d: contiguity broken inside a subregion", vpn, ppn, prev)
		}
		prev = ppn
	}
}

// TestContigDeterministicAcrossSeeds: contig frames depend only on the VPN —
// two spaces with different seeds and scatter map every page identically.
func TestContigDeterministicAcrossSeeds(t *testing.T) {
	a := NewAddressSpace(12, 1, 0)
	b := NewAddressSpace(12, 99, 7)
	for _, as := range []*AddressSpace{a, b} {
		if err := as.SetAllocMode(AllocContig); err != nil {
			t.Fatal(err)
		}
		if _, err := as.Alloc("data", 1<<21); err != nil {
			t.Fatal(err)
		}
	}
	for off := Addr(0); off < 1<<21; off += 4096 * 37 {
		pa, _ := a.Touch(off)
		pb, _ := b.Touch(off)
		if pa != pb {
			t.Fatalf("offset %#x: seed-1 frame %d != seed-99 frame %d", off, pa, pb)
		}
	}
}

// TestContigFrameBounded: every contig frame is nonzero and stays inside
// the hashed subregion space — a contigFrameBits-wide base times
// ContigRunPages — whatever the VPN.
func TestContigFrameBounded(t *testing.T) {
	const bound = 1<<contigFrameBits*ContigRunPages + 1
	for _, vpn := range []VPN{0, 1, 511, 512, 1 << 20, 1<<36 - 1, 1 << 40} {
		p := contigFrame(vpn)
		if uint64(p) >= bound {
			t.Errorf("contigFrame(%d) = %#x is outside the %d-bit subregion space", vpn, uint64(p), contigFrameBits)
		}
		if p == 0 {
			t.Errorf("contigFrame(%d) = 0, frame 0 is reserved", vpn)
		}
	}
}

// TestSetAllocModeAfterTouchFails: switching allocators mid-run would mix
// frame namespaces; the address space must refuse once pages are mapped.
func TestSetAllocModeAfterTouchFails(t *testing.T) {
	as := NewAddressSpace(12, 1, 0)
	if _, err := as.Alloc("data", 1<<20); err != nil {
		t.Fatal(err)
	}
	as.Touch(0)
	if err := as.SetAllocMode(AllocContig); err == nil {
		t.Fatal("SetAllocMode succeeded with pages already mapped")
	}
	if got := as.GetAllocMode(); got != AllocFirstTouch {
		t.Errorf("failed switch changed mode to %v", got)
	}
}

// TestContigForkConcurrentFaultsAreIndependent mirrors the first-touch fork
// race test: forks of a contig-mode space demand-fault concurrently and
// must all produce the identical (positional) mapping. Run under -race.
func TestContigForkConcurrentFaultsAreIndependent(t *testing.T) {
	proto, r := contigSpace(t)

	touch := func(as *AddressSpace) []PPN {
		ppns := make([]PPN, 0, 512)
		for a := r.Base; a < r.End(); a += 4096 {
			p, _ := as.Touch(a)
			ppns = append(ppns, p)
		}
		return ppns
	}
	want := touch(proto.Fork())

	const forks = 8
	got := make([][]PPN, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			as := proto.Fork()
			if as.GetAllocMode() != AllocContig {
				t.Errorf("fork %d lost AllocContig", i)
			}
			got[i] = touch(as)
		}(i)
	}
	wg.Wait()

	for i := 0; i < forks; i++ {
		for j, p := range got[i] {
			if p != want[j] {
				t.Fatalf("fork %d page %d mapped to PPN %d, want %d", i, j, p, want[j])
			}
		}
	}
}
