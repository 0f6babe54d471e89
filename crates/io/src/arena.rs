//! Generational slab arena for the dispatch hot path.
//!
//! The study's filter driver had to add negligible overhead to every
//! request on live machines (§3.2); our dispatch path owes the same. The
//! kernel structures a request touches — open handles, FCBs, pending IRP
//! completions — used to live in u64-keyed `HashMap`s, which cost a
//! SipHash probe per lookup and an allocation per resize. This arena
//! replaces them with a slab: O(1) index lookups, slots recycled through
//! a free list, and a per-slot **generation** so a stale handle (freed
//! and its slot reused) can never resolve to the new occupant — the
//! classic ABA hazard of raw slab indices.
//!
//! Generations start at 1 and bump on every free, so a packed handle is
//! never 0 and a handle minted before a slot's reuse always mismatches
//! the slot's current generation. Iteration order is slot order —
//! deterministic, unlike `HashMap`'s per-instance random state.

/// A typed handle into an [`Arena`]: slot index plus the generation the
/// slot had when the value was inserted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ArenaHandle {
    index: u32,
    generation: u32,
}

impl ArenaHandle {
    /// Builds a handle from raw parts (tests, external registries).
    pub fn from_parts(index: u32, generation: u32) -> Self {
        ArenaHandle { index, generation }
    }

    /// Rebuilds a handle from its [`ArenaHandle::pack`]ed form.
    pub fn unpack(raw: u64) -> Self {
        ArenaHandle {
            index: raw as u32,
            generation: (raw >> 32) as u32,
        }
    }

    /// The handle as one u64 (generation in the high half). Because
    /// generations start at 1, a packed handle is never 0.
    pub fn pack(self) -> u64 {
        ((self.generation as u64) << 32) | self.index as u64
    }

    /// Slot index (stable for the value's lifetime).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Generation stamped at insertion.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Free {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational slab: O(1) insert/lookup/remove, free-list slot reuse,
/// deterministic slot-order iteration.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// An empty arena with room for `capacity` values before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(capacity),
            free_head: None,
            len: 0,
        }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing a freed slot when one is available.
    pub fn insert(&mut self, value: T) -> ArenaHandle {
        self.len += 1;
        match self.free_head {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                let generation = match *slot {
                    Slot::Free {
                        generation,
                        next_free,
                    } => {
                        self.free_head = next_free;
                        generation
                    }
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                *slot = Slot::Occupied { generation, value };
                ArenaHandle { index, generation }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("arena slot count fits u32");
                self.slots.push(Slot::Occupied {
                    generation: 1,
                    value,
                });
                ArenaHandle {
                    index,
                    generation: 1,
                }
            }
        }
    }

    /// The value for `handle`, or `None` when freed or stale.
    pub fn get(&self, handle: ArenaHandle) -> Option<&T> {
        match self.slots.get(handle.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == handle.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value for `handle`.
    pub fn get_mut(&mut self, handle: ArenaHandle) -> Option<&mut T> {
        match self.slots.get_mut(handle.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == handle.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// True when `handle` still resolves.
    pub fn contains(&self, handle: ArenaHandle) -> bool {
        self.get(handle).is_some()
    }

    /// Removes and returns the value for `handle`. The slot's generation
    /// bumps, so the handle (and any copy of it) is dead from here on.
    pub fn remove(&mut self, handle: ArenaHandle) -> Option<T> {
        let slot = self.slots.get_mut(handle.index())?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == handle.generation => {
                // Skip 0 on wrap so packed handles stay non-zero.
                let next_gen = match generation.wrapping_add(1) {
                    0 => 1,
                    g => g,
                };
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(handle.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// [`Arena::get`] keyed by a packed handle.
    pub fn get_raw(&self, raw: u64) -> Option<&T> {
        self.get(ArenaHandle::unpack(raw))
    }

    /// [`Arena::get_mut`] keyed by a packed handle.
    pub(crate) fn get_raw_mut(&mut self, raw: u64) -> Option<&mut T> {
        self.get_mut(ArenaHandle::unpack(raw))
    }

    /// [`Arena::remove`] keyed by a packed handle.
    pub(crate) fn remove_raw(&mut self, raw: u64) -> Option<T> {
        self.remove(ArenaHandle::unpack(raw))
    }

    /// [`Arena::contains`] keyed by a packed handle.
    pub fn contains_raw(&self, raw: u64) -> bool {
        self.get_raw(raw).is_some()
    }

    /// Live `(handle, value)` pairs in slot order — deterministic, so it
    /// is safe to feed events and metrics.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaHandle, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    ArenaHandle {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Free { .. } => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert("alpha");
        let b = arena.insert("beta");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&"alpha"));
        assert_eq!(arena.get(b), Some(&"beta"));
        assert_eq!(arena.remove(a), Some("alpha"));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn freed_slot_is_reused_with_bumped_generation() {
        let mut arena = Arena::new();
        let a = arena.insert(1u32);
        arena.remove(a);
        let b = arena.insert(2u32);
        assert_eq!(b.index(), a.index(), "free list reuses the slot");
        assert_ne!(b.generation(), a.generation());
        assert_eq!(
            arena.get(a),
            None,
            "stale handle never sees the new occupant"
        );
        assert_eq!(arena.get(b), Some(&2));
    }

    #[test]
    fn stale_handle_rejected_by_every_accessor() {
        let mut arena = Arena::new();
        let a = arena.insert(10u32);
        arena.remove(a);
        let _b = arena.insert(20u32);
        assert!(!arena.contains(a));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get_mut(a), None);
        assert_eq!(arena.remove(a), None);
        assert!(!arena.contains_raw(a.pack()));
        assert_eq!(arena.get_raw(a.pack()), None);
    }

    #[test]
    fn packed_handles_roundtrip_and_are_nonzero() {
        let mut arena = Arena::new();
        for i in 0..100u64 {
            let h = arena.insert(i);
            assert_ne!(h.pack(), 0);
            assert_eq!(ArenaHandle::unpack(h.pack()), h);
        }
    }

    #[test]
    fn iteration_is_slot_ordered() {
        let mut arena = Arena::new();
        let handles: Vec<_> = (0..5u32).map(|i| arena.insert(i)).collect();
        arena.remove(handles[2]);
        let seen: Vec<u32> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 1, 3, 4]);
    }

    #[test]
    fn generation_wrap_skips_zero() {
        let mut arena: Arena<u8> = Arena::new();
        let h = arena.insert(0);
        arena.remove(h);
        // Force the slot's stored generation to the wrap point.
        if let Slot::Free { generation, .. } = &mut arena.slots[0] {
            *generation = u32::MAX;
        }
        let h2 = arena.insert(1);
        assert_eq!(h2.generation(), u32::MAX);
        arena.remove(h2);
        let h3 = arena.insert(2);
        assert_eq!(h3.generation(), 1, "wrap skips generation 0");
        assert_ne!(h3.pack(), 0);
    }
}
