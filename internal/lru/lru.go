// Package lru is a bounded map that evicts its least recently used
// entry. It is not safe for concurrent use: each caller keeps its own
// lock, and its own checks on what an entry may answer.
package lru

import "container/list"

// Cache holds at most its capacity of key/value pairs.
type Cache[K comparable, V any] struct {
	cap   int
	items map[K]*list.Element
	order list.List // of *entry[K, V], most recently used at the front
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, items: make(map[K]*list.Element, capacity)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing
// any value already there, and evicts least recently used entries past
// the capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		c.Remove(c.order.Back().Value.(*entry[K, V]).key)
	}
}

// Remove drops the entry under key, if any.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }
