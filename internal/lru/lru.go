// Package lru provides a byte-bounded map that evicts its least recently
// used entries past its budget. The process-wide tables of symbolic LU
// analyses and of compiled block stencils, and the server's result cache,
// all run on it.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a byte-bounded LRU map. It is safe for concurrent use; its
// values are shared by every caller that gets them, so they must be
// immutable.
type Cache[K comparable, V any] struct {
	budget int

	mu      sync.Mutex
	entries map[K]*list.Element // of *entry[K, V]
	order   list.List           // front = most recently used
	bytes   int
}

type entry[K comparable, V any] struct {
	key   K
	val   V
	bytes int
}

// New returns a cache that retains at most budget bytes; a budget ≤ 0
// stores nothing.
func New[K comparable, V any](budget int) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, entries: map[K]*list.Element{}}
}

// Get returns the value stored under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v, which retains bytes, under key, replacing what the key
// held, and evicts least-recently-used entries until the cache fits its
// budget. A value larger than the whole budget is not stored.
func (c *Cache[K, V]) Put(key K, v V, bytes int) {
	if c.budget <= 0 || bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[key]; el != nil {
		c.remove(el)
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: v, bytes: bytes})
	c.bytes += bytes
	for c.bytes > c.budget {
		c.remove(c.order.Back())
	}
}

// remove drops one entry; c.mu is held.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the bytes the stored entries retain.
func (c *Cache[K, V]) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the byte budget the cache was built with.
func (c *Cache[K, V]) Budget() int { return c.budget }
