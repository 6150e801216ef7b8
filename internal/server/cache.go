package server

import "repro/internal/lru"

// resultCache is a byte-size-bounded LRU of serialized sweep results keyed
// by the content hash of (canonical deck, resolved options). Values are the
// timing-free WriteJSON bytes, which are byte-identical across worker
// counts, so a hit can be served verbatim no matter which pool shape
// produced it. Entries are immutable; callers must not modify what Get
// returns.
type resultCache struct {
	*lru.Cache[string, []byte]
}

// newResultCache bounds the cache at maxBytes; maxBytes <= 0 disables it
// (every Get misses, every Put is dropped).
func newResultCache(maxBytes int64) resultCache {
	return resultCache{lru.New[string, []byte](int(maxBytes))}
}

// Put stores val, which retains len(val) bytes, under key.
func (c resultCache) Put(key string, val []byte) {
	c.Cache.Put(key, val, len(val))
}
