package trace

import (
	"math/rand"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// Property: one-pass Coalesce equals CoalesceLines plus CoalescePages on the
// same lanes, and LinePage points every line at its own page. Lane
// addresses mix same-line neighbours, line strides, page-crossing strides
// and far gathers so lines, pages and the line→page map all see duplicates.
func TestCoalesceMatchesTwoPass(t *testing.T) {
	const lineShift = 7 // 128-byte lines
	rng := rand.New(rand.NewSource(1))
	var c Coalesced
	for _, pageShift := range []uint{12, 16, 21} {
		for iter := 0; iter < 2000; iter++ {
			addrs := randomLanes(rng, pageShift)
			c.Coalesce(addrs, lineShift, pageShift)
			lines := CoalesceLines(addrs, 1<<lineShift)
			pages := CoalescePages(addrs, pageShift)
			if !equal(c.Lines, lines) || !equal(c.Pages, pages) {
				t.Fatalf("pageShift %d lanes %#x: got lines %v pages %v, want %v %v",
					pageShift, addrs, c.Lines, c.Pages, lines, pages)
			}
			if len(c.LinePage) != len(c.Lines) {
				t.Fatalf("len(LinePage) = %d, want %d", len(c.LinePage), len(c.Lines))
			}
			for i, l := range c.Lines {
				if got, want := c.Pages[c.LinePage[i]], vm.VPN(l>>(pageShift-lineShift)); got != want {
					t.Fatalf("pageShift %d: line %#x maps to page %#x, want %#x", pageShift, l, got, want)
				}
			}
		}
	}
}

func TestCoalescedZeroAlloc(t *testing.T) {
	addrs := warpAddrs()
	c := NewCoalescers(1, arch.WarpSize)[0]
	allocs := testing.AllocsPerRun(100, func() { c.Coalesce(addrs, 7, 12) })
	if allocs != 0 {
		t.Errorf("Coalesced.Coalesce allocated %.1f times per run, want 0", allocs)
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomLanes draws one warp's lane addresses (0 to WarpSize lanes) from a
// random access pattern.
func randomLanes(rng *rand.Rand, pageShift uint) []vm.Addr {
	n := rng.Intn(arch.WarpSize + 1)
	base := vm.Addr(rng.Int63n(1 << 40))
	addrs := make([]vm.Addr, n)
	stride := vm.Addr([]int{0, 4, 8, 128, 200, 4096, 1 << pageShift, 1<<pageShift + 64}[rng.Intn(8)])
	for i := range addrs {
		switch rng.Intn(4) {
		case 0: // far gather
			addrs[i] = vm.Addr(rng.Int63n(1 << 40))
		case 1: // repeat an earlier lane
			if i > 0 {
				addrs[i] = addrs[rng.Intn(i)]
				continue
			}
			fallthrough
		default:
			addrs[i] = base + vm.Addr(i)*stride
		}
	}
	return addrs
}

// coalesceCases are the lane patterns BenchmarkCoalesce times: a fully
// coalesced warp (one line), a line-strided warp (32 lines on one page), and
// a random gather (32 lines on 32 pages).
func coalesceCases() []struct {
	name  string
	addrs []vm.Addr
} {
	rng := rand.New(rand.NewSource(7))
	mk := func(f func(i int) vm.Addr) []vm.Addr {
		a := make([]vm.Addr, arch.WarpSize)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	return []struct {
		name  string
		addrs []vm.Addr
	}{
		{"coalesced", mk(func(i int) vm.Addr { return 0x10000 + vm.Addr(4*i) })},
		{"strided", mk(func(i int) vm.Addr { return 0x10000 + vm.Addr(128*i) })},
		{"gather", mk(func(int) vm.Addr { return vm.Addr(rng.Int63n(1 << 34)) })},
	}
}

// BenchmarkCoalesce times one warp instruction's coalescing: "onepass" is
// Coalesced.Coalesce; "twopass" is what it replaces in the simulator —
// CoalescePagesInto, CoalesceLinesInto, and a scan matching each line to its
// page.
func BenchmarkCoalesce(b *testing.B) {
	for _, tc := range coalesceCases() {
		b.Run("onepass/"+tc.name, func(b *testing.B) {
			var c Coalesced
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Coalesce(tc.addrs, 7, 12)
			}
		})
		b.Run("twopass/"+tc.name, func(b *testing.B) {
			pages := make([]vm.VPN, 0, arch.WarpSize)
			lines := make([]vm.Addr, 0, arch.WarpSize)
			sink := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pages = CoalescePagesInto(pages, tc.addrs, 12)
				lines = CoalesceLinesInto(lines, tc.addrs, 128)
				for _, l := range lines {
					for j, p := range pages {
						if p == vm.VPN(l>>5) {
							sink += j
							break
						}
					}
				}
			}
			_ = sink
		})
	}
}
