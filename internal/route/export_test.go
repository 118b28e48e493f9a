package route

// Built reports how many component indexes, matrix signatures and kernel
// decompositions this process has built so far.
func Built() (index, signature, decompose int64) {
	return built.index.Load(), built.signature.Load(), built.decompose.Load()
}
