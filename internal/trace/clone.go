package trace

import "slices"

// Clone forks the stream (warm-start, DESIGN.md §12): the copy shares the
// program's shape, which nothing changes after NewProgram, and owns a copy of
// its cursor — generator state, chunk cursors, position, sub-programs' cursors
// — so it produces exactly the instructions the original would have from this
// point on, and neither disturbs the other. What it costs does not depend on
// the phase table.
func (p *Program) Clone() *Program {
	cp := *p
	cp.regs = slices.Clone(p.regs)
	cp.subs = ClonePrograms(p.subs)
	return &cp
}

// ClonePrograms clones each of a set of programs (one per core).
func ClonePrograms(ps []*Program) []*Program {
	out := make([]*Program, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}
