//! A generic intrusive-list LRU map.
//!
//! Used by the chunk caches of [`crate::cache`] (byte-budgeted chunk caching
//! for UEI) and by the `uei-dbms` buffer pool (page-count-budgeted). Entries are
//! stored in a slab with intrusive prev/next links, so every operation is
//! O(1) amortized and there is one allocation per slot, reused on eviction.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    // `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A least-recently-used ordered map.
///
/// The LRU has no built-in capacity: callers decide *when* to evict (by
/// entry count, by byte budget, …) and call [`LruMap::pop_lru`]. This keeps
/// one implementation serving both the chunk cache and the buffer pool.
#[derive(Debug)]
pub struct LruMap<K, V> {
    slots: Vec<Node<K, V>>,
    free: Vec<usize>,
    map: HashMap<K, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates an empty LRU map.
    pub fn new() -> Self {
        LruMap { slots: Vec::new(), free: Vec::new(), map: HashMap::new(), head: NIL, tail: NIL }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is present (does not affect recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Gets a value and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.detach(idx);
            self.attach_front(idx);
        }
        self.slots[idx].value.as_ref()
    }

    /// Gets a mutable value and marks it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.detach(idx);
            self.attach_front(idx);
        }
        self.slots[idx].value.as_mut()
    }

    /// Gets a value without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).and_then(|&idx| self.slots[idx].value.as_ref())
    }

    /// Inserts or replaces a value, marking it most recently used. Returns
    /// the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            self.attach_front(idx);
            return self.slots[idx].value.replace(value);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Node { key: key.clone(), value: Some(value), prev: NIL, next: NIL };
            idx
        } else {
            self.slots.push(Node { key: key.clone(), value: Some(value), prev: NIL, next: NIL });
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        None
    }

    /// Removes a specific key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    /// Evicts and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.slots[idx].key.clone();
        self.map.remove(&key);
        self.detach(idx);
        self.free.push(idx);
        let value = self.slots[idx].value.take().expect("live LRU slot has a value");
        Some((key, value))
    }

    /// The least-recently-used key, if any (does not evict).
    pub fn lru_key(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.slots[self.tail].key)
        }
    }

    /// Iterates keys from most to least recently used.
    pub fn keys_mru_to_lru(&self) -> impl Iterator<Item = &K> {
        LruIter { lru: self, idx: self.head }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        while self.pop_lru().is_some() {}
    }
}

struct LruIter<'a, K, V> {
    lru: &'a LruMap<K, V>,
    idx: usize,
}

impl<'a, K, V> Iterator for LruIter<'a, K, V> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        if self.idx == NIL {
            return None;
        }
        let node = &self.lru.slots[self.idx];
        self.idx = node.next;
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_order() {
        let mut lru = LruMap::new();
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("c", 3);
        assert_eq!(lru.len(), 3);
        let order: Vec<_> = lru.keys_mru_to_lru().copied().collect();
        assert_eq!(order, vec!["c", "b", "a"]);
        // Touch "a": now most recent.
        assert_eq!(lru.get(&"a"), Some(&1));
        let order: Vec<_> = lru.keys_mru_to_lru().copied().collect();
        assert_eq!(order, vec!["a", "c", "b"]);
        assert_eq!(lru.lru_key(), Some(&"b"));
    }

    #[test]
    fn pop_lru_evicts_oldest() {
        let mut lru = LruMap::new();
        for i in 0..5 {
            lru.insert(i, i * 10);
        }
        assert_eq!(lru.pop_lru(), Some((0, 0)));
        assert_eq!(lru.pop_lru(), Some((1, 10)));
        lru.get(&2); // bump 2
        assert_eq!(lru.pop_lru(), Some((3, 30)));
        assert_eq!(lru.pop_lru(), Some((4, 40)));
        assert_eq!(lru.pop_lru(), Some((2, 20)));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn insert_existing_replaces_and_bumps() {
        let mut lru = LruMap::new();
        lru.insert("x", 1);
        lru.insert("y", 2);
        assert_eq!(lru.insert("x", 10), Some(1));
        assert_eq!(lru.peek(&"x"), Some(&10));
        assert_eq!(lru.lru_key(), Some(&"y"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn remove_specific_key() {
        let mut lru = LruMap::new();
        lru.insert(1, "one");
        lru.insert(2, "two");
        lru.insert(3, "three");
        assert_eq!(lru.remove(&2), Some("two"));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(lru.len(), 2);
        let order: Vec<_> = lru.keys_mru_to_lru().copied().collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut lru = LruMap::new();
        for i in 0..100 {
            lru.insert(i, vec![i; 4]);
            if lru.len() > 4 {
                lru.pop_lru();
            }
        }
        assert_eq!(lru.len(), 4);
        // Slab should be bounded near the working set, not grow with inserts.
        assert!(lru.slots.len() <= 5, "slab grew to {}", lru.slots.len());
    }

    #[test]
    fn get_mut_mutates() {
        let mut lru = LruMap::new();
        lru.insert("k", 1);
        *lru.get_mut(&"k").unwrap() += 41;
        assert_eq!(lru.peek(&"k"), Some(&42));
    }

    #[test]
    fn clear_empties() {
        let mut lru = LruMap::new();
        for i in 0..10 {
            lru.insert(i, i);
        }
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.pop_lru(), None);
        // Reusable after clear.
        lru.insert(7, 7);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn string_values_dropped_correctly() {
        // Exercise remove/pop with heap values to catch double-drop bugs
        // (the slab uses ptr::read internally).
        let mut lru: LruMap<u32, String> = LruMap::new();
        for i in 0..50 {
            lru.insert(i, format!("value-{i}"));
        }
        for i in 0..25 {
            assert_eq!(lru.remove(&i), Some(format!("value-{i}")));
        }
        while lru.pop_lru().is_some() {}
        lru.insert(1, "again".to_string());
        assert_eq!(lru.get(&1), Some(&"again".to_string()));
    }
}
