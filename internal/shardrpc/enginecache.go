package shardrpc

import (
	"sync"

	"github.com/detector-net/detector/internal/pll"
)

// engineCache is the server's bounded, least-recently-used set of
// localization engines, keyed by the content signature of the matrix each
// is bound to. It is deliberately small: a shard service localizes for a
// handful of diagnosers' parts, and an evicted or never-seen signature
// costs its client one install round trip, nothing more.
type engineCache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	bytes   int64
	entries []cachedEngine // least recently used first
}

type cachedEngine struct {
	sig    uint64
	engine *pll.Engine
	bytes  int64
}

// get returns the engine for sig and marks it most recently used, or nil.
func (c *engineCache) get(sig uint64) *pll.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.sig == sig {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e.engine
		}
	}
	return nil
}

// put caches an engine as most recently used, replacing any held under the
// same signature, then evicts from the cold end until both bounds hold —
// the new engine included, when the bounds admit nothing. It returns the
// number of engines evicted.
func (c *engineCache) put(sig uint64, engine *pll.Engine, bytes int64) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.sig == sig {
			c.bytes -= e.bytes
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			break
		}
	}
	c.entries = append(c.entries, cachedEngine{sig: sig, engine: engine, bytes: bytes})
	c.bytes += bytes
	for len(c.entries) > 0 && (len(c.entries) > c.maxEntries || c.bytes > c.maxBytes) {
		c.bytes -= c.entries[0].bytes
		c.entries[0] = cachedEngine{}
		c.entries = c.entries[1:]
		evicted++
	}
	return evicted
}

func (c *engineCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
