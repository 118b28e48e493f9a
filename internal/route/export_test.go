package route

// Built reports how many component indexes, matrix signatures and kernel
// decompositions this process has built so far.
func Built() (index, signature, decompose int64) {
	return built.index.Load(), built.signature.Load(), built.decompose.Load()
}

// isRepresentative is the predicate FattreePaths.AppendRepresentatives
// lists: the canonical orbit member is the rotation with source pod 0.
func (p *FattreePaths) isRepresentative(i int) bool {
	s, _, _ := p.Decode(i)
	return s/p.h == 0
}
