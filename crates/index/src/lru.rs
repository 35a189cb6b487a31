//! A real least-recently-used cache: O(1) get/insert/evict via a
//! doubly-linked recency list threaded through a slot arena.
//!
//! Replaces reset-on-full policies (which throw the whole working set away
//! at capacity) with precise eviction of the coldest entry. Deterministic:
//! eviction follows recency order only — hash-map iteration order never
//! decides anything — so two identical access sequences evict identically.

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel for "no slot" in the recency list.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded map evicting the least-recently-used entry on overflow.
///
/// [`get`](LruCache::get) and [`insert`](LruCache::insert) both count as
/// uses. Capacity must be at least 1.
///
/// ```
/// use cut_index::LruCache;
///
/// let mut cache: LruCache<&str, u32> = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a"); // "a" is now the most recent
/// let evicted = cache.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2))); // the cold entry goes, not the old one
/// assert!(cache.get(&"a").is_some());
/// ```
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (evicted first).
    tail: usize,
    /// Reusable arena slots from evictions/removals.
    free: Vec<usize>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU cache needs capacity >= 1");
        Self {
            capacity,
            // Grown on demand: most graphs cache a few dozen queries, and a
            // map sized for the full capacity reserves hundreds of KiB per
            // graph up front.
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The bound passed to [`new`](LruCache::new).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value for `key`, promoting the entry to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.promote(slot);
        Some(&self.slots[slot].value)
    }

    /// The value for `key` without touching recency (tests/inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&slot| &self.slots[slot].value)
    }

    /// Insert (or replace) `key -> value` as most-recently-used. Returns
    /// the entry evicted to make room, if any (never on replacement).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.promote(slot);
            return None;
        }
        let evicting = self.map.len() == self.capacity;
        if evicting {
            let tail = self.tail;
            self.unlink(tail);
            let old_key = self.slots[tail].key.clone();
            self.map.remove(&old_key);
            self.free.push(tail);
        }
        // `free` is LIFO, so when the eviction above ran, the pop below
        // returns exactly the evicted slot and `old` is the evicted entry;
        // otherwise a popped slot holds the long-dead remains of a
        // `remove`, which are not reported.
        let fresh = Slot { key: key.clone(), value, prev: NIL, next: NIL };
        let (slot, old) = match self.free.pop() {
            Some(slot) => {
                let old = std::mem::replace(&mut self.slots[slot], fresh);
                (slot, Some((old.key, old.value)))
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1, None)
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        if evicting {
            old
        } else {
            None
        }
    }

    /// Drop `key`'s entry if present; returns whether one was removed.
    ///
    /// The slot is recycled on a later insert (its contents are replaced
    /// then — removal detaches the entry immediately but defers the value
    /// drop to the slot's reuse or [`clear`](LruCache::clear)).
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(slot) = self.map.remove(key) else {
            return false;
        };
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    /// Iterate live entries from least- to most-recently-used, without
    /// touching recency. This is the serialization order for snapshots:
    /// re-inserting the yielded pairs into a fresh cache (oldest first)
    /// reproduces the exact recency list, so post-restore evictions fall
    /// on the same entries they would have in the original.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut slot = self.tail;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let s = &self.slots[slot];
            slot = s.prev;
            Some((&s.key, &s.value))
        })
    }

    /// Drop every entry (capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Detach `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
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
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Attach `slot` at the most-recently-used end.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn promote(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..3 {
            assert_eq!(c.insert(i, i * 10), None);
        }
        // Touch 0 so 1 becomes coldest.
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.insert(3, 30), Some((1, 10)));
        assert_eq!(c.len(), 3);
        assert!(c.peek(&1).is_none());
        assert_eq!(c.peek(&0), Some(&0));
    }

    #[test]
    fn replacement_promotes_without_evicting() {
        let mut c: LruCache<&str, u32> = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Replacing "a" promotes it; no eviction.
        assert_eq!(c.insert("a", 9), None);
        assert_eq!(c.insert("c", 3), Some(("b", 2)));
        assert_eq!(c.peek(&"a"), Some(&9));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_degenerates_gracefully() {
        let mut c: LruCache<u32, &str> = LruCache::new(1);
        assert_eq!(c.insert(1, "one"), None);
        assert_eq!(c.insert(2, "two"), Some((1, "one")));
        assert_eq!(c.get(&2), Some(&"two"));
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn clear_keeps_capacity_and_stays_usable() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert!(c.insert(3, 3).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 2);
        // Reusable after clear.
        c.insert(4, 4);
        assert_eq!(c.get(&4), Some(&4));
    }

    #[test]
    fn remove_frees_the_slot_without_reporting_an_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.remove(&1));
        assert!(!c.remove(&1), "double remove is a no-op");
        assert_eq!(c.len(), 1);
        // The freed slot is reused below capacity: no phantom eviction.
        assert_eq!(c.insert(3, 30), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&2), Some(&20));
        assert_eq!(c.peek(&3), Some(&30));
        // At capacity again, a real eviction reports the true LRU entry.
        assert_eq!(c.insert(4, 40), Some((2, 20)));
    }

    #[test]
    fn recency_order_is_exact_under_mixed_access() {
        // Model against a Vec-based reference implementation.
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        let mut reference: Vec<u32> = Vec::new(); // most recent first
        let script: &[(bool, u32)] = &[
            (true, 1),
            (true, 2),
            (true, 3),
            (false, 1),
            (true, 4),
            (true, 5), // evicts 2
            (false, 3),
            (true, 6), // evicts 1
            (true, 7), // evicts 4
        ];
        for &(is_insert, k) in script {
            if is_insert {
                c.insert(k, k);
                reference.retain(|&x| x != k);
                reference.insert(0, k);
                reference.truncate(4);
            } else if c.get(&k).is_some() {
                reference.retain(|&x| x != k);
                reference.insert(0, k);
            }
        }
        let mut live: Vec<u32> = reference.clone();
        live.sort_unstable();
        let mut got: Vec<u32> = (0..=9).filter(|k| c.peek(k).is_some()).collect();
        got.sort_unstable();
        assert_eq!(got, live);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_a_bug() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn iter_lru_yields_oldest_first_and_rebuilds_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(&1); // recency now (oldest..newest): 2, 3, 1
        let order: Vec<u32> = c.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);

        // Re-inserting in yielded order reproduces eviction behavior.
        let mut rebuilt: LruCache<u32, u32> = LruCache::new(3);
        for (k, v) in c.iter_lru() {
            rebuilt.insert(*k, *v);
        }
        assert_eq!(rebuilt.insert(4, 40), Some((2, 20)));
        assert_eq!(c.insert(4, 40), Some((2, 20)));
    }
}
