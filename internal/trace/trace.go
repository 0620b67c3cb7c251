package trace

import (
	"fmt"
	"slices"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// Inst is one warp instruction. If Addrs is non-nil it is a memory
// instruction with one address per active lane (at most arch.WarpSize);
// otherwise it models Compute cycles of ALU work.
type Inst struct {
	Compute int
	Addrs   []vm.Addr
}

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return in.Addrs != nil }

// WarpTrace is the instruction stream of one warp.
type WarpTrace struct {
	Insts []Inst
}

// TBTrace is one thread block: its grid-wide id and its warps.
type TBTrace struct {
	ID    int
	Warps []WarpTrace
}

// Kernel is a full launch: a name, the TB geometry, and per-TB traces.
type Kernel struct {
	Name         string
	ThreadsPerTB int
	// RegsPerThread and SharedMemPerTB drive the occupancy calculation that
	// fixes concurrent TBs per SM at launch (paper §IV-B point two).
	RegsPerThread  int
	SharedMemPerTB int
	TBs            []TBTrace
	// PhaseStarts lists TB indices that begin a new dependent phase (a
	// separate kernel launch in the real application, e.g. the transposed
	// sweep of atax). The dispatcher must not launch a TB of phase p until
	// every TB of earlier phases has completed.
	PhaseStarts []int
}

// ValidatePhases checks that PhaseStarts is strictly ascending and in range.
func (k *Kernel) ValidatePhases() error {
	prev := 0
	for _, b := range k.PhaseStarts {
		if b <= prev || b >= len(k.TBs) {
			return fmt.Errorf("trace: phase start %d out of order or range (TBs %d)", b, len(k.TBs))
		}
		prev = b
	}
	return nil
}

// WarpsPerTB returns the warp count per TB.
func (k *Kernel) WarpsPerTB() int { return (k.ThreadsPerTB + arch.WarpSize - 1) / arch.WarpSize }

// ConcurrentTBsPerSM computes how many TBs of this kernel fit on one SM, the
// compile-time occupancy bound: threads, registers, shared memory, warp
// slots, and the hardware TB-slot limit.
func (k *Kernel) ConcurrentTBsPerSM(cfg arch.Config) int {
	n := cfg.EffectiveMaxTBsPerSM()
	if byThreads := cfg.MaxThreads / k.ThreadsPerTB; byThreads < n {
		n = byThreads
	}
	if byWarps := cfg.MaxWarpsPerSM / k.WarpsPerTB(); byWarps < n {
		n = byWarps
	}
	if k.RegsPerThread > 0 {
		if byRegs := cfg.RegistersPerSM / (k.RegsPerThread * k.ThreadsPerTB); byRegs < n {
			n = byRegs
		}
	}
	if k.SharedMemPerTB > 0 {
		if bySmem := cfg.SharedMemPerSM / k.SharedMemPerTB; bySmem < n {
			n = bySmem
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// MemInsts counts memory instructions across the kernel.
func (k *Kernel) MemInsts() int {
	n := 0
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				if in.IsMem() {
					n++
				}
			}
		}
	}
	return n
}

// CoalesceLines merges a warp's lane addresses into unique cache-line
// addresses, preserving first-occurrence order (the coalescing unit issues
// one request per distinct line).
func CoalesceLines(addrs []vm.Addr, lineBytes int) []vm.Addr {
	return CoalesceLinesInto(make([]vm.Addr, 0, 4), addrs, lineBytes)
}

// CoalesceLinesInto is CoalesceLines appending into dst (reset to length
// zero), the allocation-free emit path: a caller that passes a buffer with
// capacity arch.WarpSize never allocates. Returns the filled buffer.
func CoalesceLinesInto(dst []vm.Addr, addrs []vm.Addr, lineBytes int) []vm.Addr {
	dst = dst[:0]
	shift := uintLog2(lineBytes)
	for _, a := range addrs {
		line := a >> shift
		dup := false
		for _, s := range dst {
			if s == line {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, line)
		}
	}
	return dst
}

// CoalescePages merges lane addresses into unique virtual page numbers,
// preserving first-occurrence order — the translation requests one warp
// memory instruction sends to the L1 TLB.
func CoalescePages(addrs []vm.Addr, pageShift uint) []vm.VPN {
	return CoalescePagesInto(make([]vm.VPN, 0, 2), addrs, pageShift)
}

// CoalescePagesInto is CoalescePages appending into dst (reset to length
// zero), the allocation-free emit path used by the simulator's per-
// instruction loop. Returns the filled buffer.
func CoalescePagesInto(dst []vm.VPN, addrs []vm.Addr, pageShift uint) []vm.VPN {
	dst = dst[:0]
	for _, a := range addrs {
		p := vm.VPN(a >> pageShift)
		dup := false
		for _, s := range dst {
			if s == p {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p)
		}
	}
	return dst
}

// Coalesced is one warp memory instruction's coalescer output, in reusable
// buffers: the distinct lines, the distinct pages, and each line's page.
// The zero value is ready to use; after the buffers have grown to a warp's
// worth of lanes, Coalesce never allocates.
type Coalesced struct {
	Lines    []vm.Addr // distinct line addresses, first-occurrence order
	Pages    []vm.VPN  // distinct pages, first-occurrence order
	LinePage []int     // LinePage[i] indexes Pages with Lines[i]'s page
}

// NewCoalescers returns n Coalesced whose buffers hold lanes entries each
// without growing, carved from one backing array per buffer so a simulator
// with one coalescer per SM pays three allocations, not three per SM.
func NewCoalescers(n, lanes int) []Coalesced {
	lines := make([]vm.Addr, n*lanes)
	pages := make([]vm.VPN, n*lanes)
	linePage := make([]int, n*lanes)
	cs := make([]Coalesced, n)
	for i := range cs {
		lo, hi := i*lanes, (i+1)*lanes
		cs[i] = Coalesced{Lines: lines[lo:lo:hi], Pages: pages[lo:lo:hi], LinePage: linePage[lo:lo:hi]}
	}
	return cs
}

// Coalesce coalesces addrs in one pass: the lanes into distinct lines
// (CoalesceLines with 1<<lineShift-byte lines), then the pages from those
// lines. Because a line lies inside one page (lineShift <= pageShift), the
// first lane on a page is also the first lane on its line, so Pages is in
// the same order as CoalescePages(addrs, pageShift).
func (c *Coalesced) Coalesce(addrs []vm.Addr, lineShift, pageShift uint) {
	lines, pages, linePage := c.Lines[:0], c.Pages[:0], c.LinePage[:0]
	// Masked shift counts spare each shift Go's oversized-count branch.
	linesPerPage := (pageShift - lineShift) & 63
	lineShift &= 63
	// seenLines and seenPages are one-word Bloom filters over what has
	// been emitted: a value whose bit is clear is new without a scan, which
	// keeps gathers linear. Neighbouring lanes mostly share a line, and
	// neighbouring lines a page, so the latest entry is checked first.
	var seenLines, seenPages uint64
	for _, a := range addrs {
		line := a >> lineShift
		if n := len(lines); n > 0 && lines[n-1] == line {
			continue
		}
		bit := bloomBit(uint64(line))
		if seenLines&bit != 0 && slices.Contains(lines, line) {
			continue
		}
		seenLines |= bit
		lines = append(lines, line)

		p := vm.VPN(line >> linesPerPage)
		pi := len(pages) - 1
		if pi < 0 || pages[pi] != p {
			pi = -1
			bit := bloomBit(uint64(p))
			if seenPages&bit != 0 {
				pi = slices.Index(pages, p)
			}
			if pi < 0 {
				seenPages |= bit
				pi = len(pages)
				pages = append(pages, p)
			}
		}
		linePage = append(linePage, pi)
	}
	c.Lines, c.Pages, c.LinePage = lines, pages, linePage
}

// bloomBit is v's bit in a 64-bit Bloom filter (a Fibonacci hash).
func bloomBit(v uint64) uint64 { return 1 << (v * 0x9E3779B97F4A7C15 >> 58) }

func uintLog2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// TBPageTrace flattens one TB into its translation-request stream: warps are
// interleaved round-robin one instruction at a time (approximating fair
// intra-TB warp scheduling) and each memory instruction contributes its
// coalesced pages in order. This is the stream the paper's characterization
// (Eq. 1 and the reuse-distance CDFs) operates on.
func TBPageTrace(tb TBTrace, pageShift uint) []vm.VPN {
	var out []vm.VPN
	idx := make([]int, len(tb.Warps))
	for {
		progressed := false
		for w := range tb.Warps {
			insts := tb.Warps[w].Insts
			if idx[w] >= len(insts) {
				continue
			}
			in := insts[idx[w]]
			idx[w]++
			progressed = true
			if in.IsMem() {
				out = append(out, CoalescePages(in.Addrs, pageShift)...)
			}
		}
		if !progressed {
			return out
		}
	}
}
