package route

// Built reports how many component indexes, matrix signatures, kernel
// decompositions and row blocks this process has built so far.
func Built() (index, signature, decompose, blocks int64) {
	return built.index.Load(), built.signature.Load(), built.decompose.Load(), built.blocks.Load()
}
