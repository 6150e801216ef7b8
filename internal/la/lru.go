package la

import (
	"container/list"
	"sync"
)

// lru is a byte-bounded map that evicts its least recently used entries
// past its budget. The process-wide tables of symbolic LU analyses and of
// compiled block stencils both run on it. It is safe for concurrent use;
// its values are shared by every caller that gets them, so they must be
// immutable.
type lru[K comparable, V any] struct {
	budget int

	mu      sync.Mutex
	entries map[K]*list.Element // of *lruEntry[K, V]
	order   list.List           // front = most recently used
	bytes   int
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	bytes int
}

func newLRU[K comparable, V any](budget int) *lru[K, V] {
	return &lru[K, V]{budget: budget, entries: map[K]*list.Element{}}
}

// get returns the value stored under key, marking it most recently used.
func (c *lru[K, V]) get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores v, which retains bytes, under key, replacing what the key
// held, and evicts least-recently-used entries until the table fits its
// budget. A value larger than the whole budget is not stored.
func (c *lru[K, V]) put(key K, v V, bytes int) {
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		c.remove(el)
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: v, bytes: bytes})
	c.bytes += bytes
	for c.bytes > c.budget {
		c.remove(c.order.Back())
	}
}

// remove drops one entry; c.mu is held.
func (c *lru[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}
