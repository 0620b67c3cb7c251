package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"gputlb"
)

// counters flattens a stats tree's counters to full slash paths
// ("sim/sm00/l1tlb/hits").
func counters(s *gputlb.StatsSnapshot) map[string]int64 {
	out := map[string]int64{}
	var walk func(prefix string, n *gputlb.StatsSnapshot)
	walk = func(prefix string, n *gputlb.StatsSnapshot) {
		path := n.Name
		if prefix != "" {
			path = prefix + "/" + n.Name
		}
		for _, c := range n.Counters {
			out[path+"/"+c.Name] = c.Value
		}
		for _, ch := range n.Children {
			walk(path, ch)
		}
	}
	if s != nil {
		walk("", s)
	}
	return out
}

// sumWhere adds the counters whose path has the given prefix and suffix.
func sumWhere(c map[string]int64, prefix, suffix string) int64 {
	var n int64
	for p, v := range c {
		if strings.HasPrefix(p, prefix) && strings.HasSuffix(p, suffix) {
			n += v
		}
	}
	return n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// l1HitRate is the L1 TLB hit rate over every SM of a tree.
func l1HitRate(c map[string]int64) float64 {
	return ratio(sumWhere(c, "sim/sm", "/l1tlb/hits"), sumWhere(c, "sim/sm", "/l1tlb/accesses"))
}

// digest fingerprints a stats tree, every value included.
func digest(s *gputlb.StatsSnapshot) string {
	if s == nil {
		return ""
	}
	h := sha256.New()
	for _, fv := range s.Flatten("") {
		h.Write([]byte(fv.Path + "=" + fv.Value + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dumpDigest fingerprints a sweep's stats dump in cell order.
func dumpDigest(rows []gputlb.StatsRow) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteString(row.Bench + "/" + row.Config + ":" + digest(row.Stats) + "\n")
	}
	return b.String()
}

// instCount is the number of instructions a kernel issues: every warp
// instruction, memory or compute, issues once.
func instCount(k *gputlb.Kernel) int64 {
	var n int64
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			n += int64(len(w.Insts))
		}
	}
	return n
}

// checkBalance checks accesses = hits + misses for every structure of a
// tree that counts all three (L1/L2 TLBs, L1/L2 caches, the walk cache).
func (r *runner) checkBalance(cell string, c map[string]int64) {
	for p, acc := range c {
		node, ok := strings.CutSuffix(p, "/accesses")
		if !ok {
			continue
		}
		hits, okH := c[node+"/hits"]
		misses, okM := c[node+"/misses"]
		if okH && okM {
			r.check(acc == hits+misses, "%s: %s accesses %d != hits %d + misses %d", cell, node, acc, hits, misses)
		}
	}
}

// checkKernelCell checks one single-kernel cell against its kernel: the
// per-structure balance, every thread block retired once, and every
// instruction issued once.
func (r *runner) checkKernelCell(cell string, s *gputlb.StatsSnapshot, k *gputlb.Kernel) {
	if !r.check(s != nil && k != nil, "%s: missing stats tree or kernel", cell) {
		return
	}
	c := counters(s)
	r.checkBalance(cell, c)
	r.check(c["sim/tbs_done"] == int64(len(k.TBs)), "%s: tbs_done %d, kernel has %d TBs", cell, c["sim/tbs_done"], len(k.TBs))
	r.check(c["sim/insts_issued"] == instCount(k), "%s: insts_issued %d, kernel has %d", cell, c["sim/insts_issued"], instCount(k))
}
