//! O(1) fully-associative lookup: an open-addressing tag map plus an
//! intrusive recency list.
//!
//! Two structures in this crate are fully associative and can be large
//! — the degenerate one-set [`crate::cache::Cache`] geometry the paper's
//! miss-ratio comparisons use as their reference curve, and a TLB
//! configured with as many ways as entries. Probing them by scanning
//! every way costs O(ways) per access, and victim selection by scanning
//! every stamp costs another O(ways); for the 256-line
//! fully-associative 8KB model that made it ~3× slower than every
//! set-associative configuration in the same sweep.
//!
//! [`AssocIndex`] replaces both scans:
//!
//! * **Probe** — an open-addressing hash table (linear probing, ≤ 50%
//!   load, fibonacci hashing, backward-shift deletion — no tombstones)
//!   maps a resident key to its slot in O(1).
//! * **Victim selection** — slots are threaded on an intrusive doubly-
//!   linked list in eviction order. Appending on insert and *not*
//!   moving on touch gives FIFO order; moving a touched slot to the
//!   tail gives true LRU. The head is always the next victim, in O(1).
//! * **Slot reuse** — freed slots are handed back lowest-index first
//!   (a small binary min-heap), which reproduces exactly the
//!   "first invalid way" choice of the scan it replaces, so random
//!   replacement (which picks a *way*, not a stamp) sees an identical
//!   slot layout and therefore evicts identical victims.
//!
//! The structure deliberately stores no payload: callers keep their
//! per-line metadata in the same flat slot-indexed arrays they always
//! had, and the index only answers "which slot?" and "who is next?".

/// Sentinel for an empty hash bucket and a nil list link.
const NIL: u32 = u32::MAX;

/// Fibonacci multiplier (the golden-ratio constant) for bucket hashing.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An O(1) fully-associative index over `u64` keys: hash-mapped probes,
/// list-ordered victim selection, min-heap slot reuse. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use cac_sim::assoc::AssocIndex;
///
/// let mut idx = AssocIndex::new(2);
/// let a = idx.insert(0xaaa);
/// let b = idx.insert(0xbbb);
/// assert_eq!(idx.get(0xaaa), Some(a));
/// idx.touch(a); // LRU usage: a is now most recent
/// assert_eq!(idx.victim_slot(), b);
/// idx.remove_slot(b);
/// assert_eq!(idx.get(0xbbb), None);
/// assert_eq!(idx.insert(0xccc), b, "freed slots are reused lowest-first");
/// ```
#[derive(Debug, Clone)]
pub struct AssocIndex {
    /// Hash buckets holding slot numbers (`NIL` = vacant). Power-of-two
    /// sized, at most half full.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`, for fibonacci hashing.
    shift: u32,
    /// The key resident in each slot (meaningful only while occupied).
    keys: Vec<u64>,
    /// Intrusive doubly-linked list links, eviction order: `head` is
    /// the next victim, `tail` the most recently inserted/touched.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Free slots as a binary min-heap, so allocation hands out the
    /// lowest-numbered slot first.
    free: Vec<u32>,
}

impl AssocIndex {
    /// Creates an index over `slots` slots, all free.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or does not fit in `u32`.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "an associative index needs at least one slot");
        assert!(slots < NIL as usize, "slot count must fit in u32");
        let buckets = (slots * 2).next_power_of_two().max(8);
        AssocIndex {
            buckets: vec![NIL; buckets],
            shift: 64 - buckets.trailing_zeros(),
            keys: vec![0; slots],
            prev: vec![NIL; slots],
            next: vec![NIL; slots],
            head: NIL,
            tail: NIL,
            // An ascending run is already a valid min-heap.
            free: (0..slots as u32).collect(),
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.keys.len() - self.free.len()
    }

    /// `true` when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// The key resident in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range; the value is meaningless if the
    /// slot is currently free.
    pub fn key_at(&self, slot: u32) -> u64 {
        self.keys[slot as usize]
    }

    #[inline]
    fn bucket_for(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The slot holding `key`, if resident. O(1) expected.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mask = self.buckets.len() - 1;
        let mut i = self.bucket_for(key);
        loop {
            let slot = self.buckets[i];
            if slot == NIL {
                return None;
            }
            if self.keys[slot as usize] == key {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Moves `slot` to the most-recent end of the list (LRU usage; FIFO
    /// callers simply never call this).
    ///
    /// # Panics
    ///
    /// May panic (or corrupt recency order) if `slot` is not occupied.
    #[inline]
    pub fn touch(&mut self, slot: u32) {
        if self.tail == slot {
            return;
        }
        self.unlink(slot);
        self.attach_tail(slot);
    }

    /// Occupies the lowest-numbered free slot with `key`, appending it
    /// at the most-recent end of the eviction list. Returns the slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is full. Inserting a key that is already
    /// resident is a caller bug (debug-asserted): the probe table maps
    /// each key to one slot.
    pub fn insert(&mut self, key: u64) -> u32 {
        debug_assert!(self.get(key).is_none(), "key {key:#x} already resident");
        let slot = self.pop_free().expect("associative index is full");
        self.keys[slot as usize] = key;
        let mask = self.buckets.len() - 1;
        let mut i = self.bucket_for(key);
        while self.buckets[i] != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = slot;
        self.attach_tail(slot);
        slot
    }

    /// The next victim: the head (least-recent / first-in) slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    #[inline]
    pub fn victim_slot(&self) -> u32 {
        assert!(self.head != NIL, "no occupied slot to victimize");
        self.head
    }

    /// Frees `slot`: unlinks it from the eviction list, removes its key
    /// from the probe table and returns the slot to the free heap.
    ///
    /// # Panics
    ///
    /// May panic if `slot` is not occupied.
    pub fn remove_slot(&mut self, slot: u32) {
        self.unlink(slot);
        self.hash_remove(slot);
        self.push_free(slot);
    }

    /// Frees every slot.
    pub fn clear(&mut self) {
        self.buckets.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
        self.free.clear();
        self.free.extend(0..self.keys.len() as u32);
    }

    /// Occupied slots in eviction order (next victim first).
    pub fn iter_eviction_order(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let s = cur;
            cur = self.next[cur as usize];
            Some(s)
        })
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    #[inline]
    fn attach_tail(&mut self, slot: u32) {
        self.prev[slot as usize] = self.tail;
        self.next[slot as usize] = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
    }

    /// Removes `slot`'s key from the probe table with backward-shift
    /// deletion, preserving every other key's probe chain without
    /// tombstones.
    fn hash_remove(&mut self, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = self.bucket_for(self.keys[slot as usize]);
        while self.buckets[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            self.buckets[hole] = NIL;
            loop {
                j = (j + 1) & mask;
                let s = self.buckets[j];
                if s == NIL {
                    return;
                }
                let ideal = self.bucket_for(self.keys[s as usize]);
                // The entry at `j` may fill the hole iff the hole lies on
                // its probe path, i.e. `ideal` is cyclically no later
                // than the hole.
                if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                    self.buckets[hole] = s;
                    hole = j;
                    break;
                }
            }
        }
    }

    fn pop_free(&mut self) -> Option<u32> {
        let top = *self.free.first()?;
        let last = self.free.pop().expect("non-empty");
        if let Some(first) = self.free.first_mut() {
            *first = last;
            // Sift down.
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut min = i;
                if l < self.free.len() && self.free[l] < self.free[min] {
                    min = l;
                }
                if r < self.free.len() && self.free[r] < self.free[min] {
                    min = r;
                }
                if min == i {
                    break;
                }
                self.free.swap(i, min);
                i = min;
            }
        }
        Some(top)
    }

    fn push_free(&mut self, slot: u32) {
        self.free.push(slot);
        // Sift up.
        let mut i = self.free.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.free[parent] <= self.free[i] {
                break;
            }
            self.free.swap(i, parent);
            i = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut idx = AssocIndex::new(4);
        assert!(idx.is_empty());
        let s0 = idx.insert(100);
        let s1 = idx.insert(200);
        assert_eq!((s0, s1), (0, 1), "slots allocated lowest-first");
        assert_eq!(idx.get(100), Some(0));
        assert_eq!(idx.get(200), Some(1));
        assert_eq!(idx.get(300), None);
        idx.remove_slot(s0);
        assert_eq!(idx.get(100), None);
        assert_eq!(idx.get(200), Some(1));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_lowest_first() {
        let mut idx = AssocIndex::new(4);
        for k in 0..4 {
            idx.insert(k);
        }
        idx.remove_slot(2);
        idx.remove_slot(0);
        idx.remove_slot(3);
        assert_eq!(idx.insert(10), 0);
        assert_eq!(idx.insert(11), 2);
        assert_eq!(idx.insert(12), 3);
        assert!(idx.is_full());
    }

    #[test]
    fn fifo_order_without_touch() {
        let mut idx = AssocIndex::new(3);
        idx.insert(7);
        idx.insert(8);
        idx.insert(9);
        assert_eq!(idx.key_at(idx.victim_slot()), 7);
        let s = idx.victim_slot();
        idx.remove_slot(s);
        idx.insert(10);
        assert_eq!(idx.key_at(idx.victim_slot()), 8);
        let order: Vec<u64> = idx.iter_eviction_order().map(|s| idx.key_at(s)).collect();
        assert_eq!(order, vec![8, 9, 10]);
    }

    #[test]
    fn touch_moves_to_most_recent() {
        let mut idx = AssocIndex::new(3);
        let a = idx.insert(1);
        idx.insert(2);
        idx.insert(3);
        idx.touch(a);
        let order: Vec<u64> = idx.iter_eviction_order().map(|s| idx.key_at(s)).collect();
        assert_eq!(order, vec![2, 3, 1]);
        // Touching the tail is a no-op.
        idx.touch(a);
        assert_eq!(idx.key_at(idx.victim_slot()), 2);
    }

    #[test]
    fn clear_restores_pristine_state() {
        let mut idx = AssocIndex::new(3);
        idx.insert(5);
        idx.insert(6);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(5), None);
        assert_eq!(idx.insert(9), 0, "slot order restarts from zero");
    }

    /// Deterministic churn against a shadow `HashMap` + recency vector:
    /// the hash table (including backward-shift deletion) and the
    /// intrusive list must agree with the naive model through thousands
    /// of mixed operations.
    #[test]
    fn churn_matches_naive_model() {
        let slots = 61;
        let mut idx = AssocIndex::new(slots);
        let mut shadow: HashMap<u64, u32> = HashMap::new();
        let mut order: Vec<u64> = Vec::new(); // eviction order, oldest first
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 200; // small key space forces collisions + reuse
            match x % 5 {
                0 | 1 => {
                    // Insert (evicting the head when full), unless resident.
                    if !shadow.contains_key(&key) {
                        if idx.is_full() {
                            let v = idx.victim_slot();
                            let vk = idx.key_at(v);
                            assert_eq!(order.first(), Some(&vk), "step {step}");
                            idx.remove_slot(v);
                            shadow.remove(&vk);
                            order.remove(0);
                        }
                        let slot = idx.insert(key);
                        shadow.insert(key, slot);
                        order.push(key);
                    }
                }
                2 => {
                    // Touch if resident.
                    if let Some(&slot) = shadow.get(&key) {
                        idx.touch(slot);
                        let pos = order.iter().position(|&k| k == key).unwrap();
                        order.remove(pos);
                        order.push(key);
                    }
                }
                3 => {
                    // Remove if resident.
                    if let Some(slot) = shadow.remove(&key) {
                        idx.remove_slot(slot);
                        let pos = order.iter().position(|&k| k == key).unwrap();
                        order.remove(pos);
                    }
                }
                _ => {
                    // Lookup.
                    assert_eq!(idx.get(key), shadow.get(&key).copied(), "step {step}");
                }
            }
            assert_eq!(idx.len(), shadow.len(), "step {step}");
        }
        // Full-order agreement at the end.
        let got: Vec<u64> = idx.iter_eviction_order().map(|s| idx.key_at(s)).collect();
        assert_eq!(got, order);
        for (&k, &slot) in &shadow {
            assert_eq!(idx.get(k), Some(slot));
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = AssocIndex::new(0);
    }
}
