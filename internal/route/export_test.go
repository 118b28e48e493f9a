package route

// Built reports how many component indexes and matrix signatures this
// process has built so far.
func Built() (index, signature int64) { return built.index.Load(), built.signature.Load() }
