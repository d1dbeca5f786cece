//! Shared-payload slab for in-flight messages.
//!
//! A multicast stores its payload **once**, together with the sender and
//! causal depth it was dispatched with, plus a refcount of pending
//! deliveries. The event queue (`queue.rs`: one FIFO bucket per pending
//! instant) then carries only a compact `Copy` `(slot, recipient)` pair, so
//! queueing a delivery never moves a payload. Slots are pushed onto a free
//! list when their last delivery completes and are reused by later inserts,
//! so a steady-state simulation stops allocating once the slab has grown to
//! the peak in-flight count.

use dex_types::{ProcessId, StepDepth};

#[derive(Debug)]
struct Slot<M> {
    /// `None` only while the slot sits on the free list.
    payload: Option<M>,
    from: ProcessId,
    depth: StepDepth,
    /// Pending deliveries; the slot is freed when this reaches zero.
    remaining: u32,
}

/// The slab: slot storage plus a LIFO free list.
#[derive(Debug)]
pub(crate) struct PayloadSlab<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
}

impl<M> PayloadSlab<M> {
    pub(crate) fn new() -> Self {
        PayloadSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores one payload shared by `remaining` pending deliveries and
    /// returns its slot key.
    pub(crate) fn insert(
        &mut self,
        payload: M,
        from: ProcessId,
        depth: StepDepth,
        remaining: u32,
    ) -> u32 {
        debug_assert!(remaining > 0, "a slot must have at least one delivery");
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.payload.is_none());
                slot.payload = Some(payload);
                slot.from = from;
                slot.depth = depth;
                slot.remaining = remaining;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("more than u32::MAX in flight");
                self.slots.push(Slot {
                    payload: Some(payload),
                    from,
                    depth,
                    remaining,
                });
                idx
            }
        }
    }

    /// The shared payload of a live slot.
    pub(crate) fn payload(&self, slot: u32) -> &M {
        self.slots[slot as usize]
            .payload
            .as_ref()
            .expect("slot is live")
    }

    /// The `(from, depth)` the slot was dispatched with.
    pub(crate) fn meta(&self, slot: u32) -> (ProcessId, StepDepth) {
        let s = &self.slots[slot as usize];
        (s.from, s.depth)
    }

    /// Adds one pending delivery to a live slot (a chaos duplication shares
    /// the original payload instead of cloning it).
    pub(crate) fn retain(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.remaining > 0, "cannot retain a freed slot");
        s.remaining += 1;
    }

    /// Records one completed delivery; drops the payload and recycles the
    /// slot when it was the last one.
    pub(crate) fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.remaining > 0);
        s.remaining -= 1;
        if s.remaining == 0 {
            s.payload = None;
            self.free.push(slot);
        }
    }

    /// Number of live (payload-holding) slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (live + recycled).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn multicast_slot_survives_until_last_release() {
        let mut slab: PayloadSlab<String> = PayloadSlab::new();
        let s = slab.insert("hello".into(), p(2), StepDepth::new(3), 3);
        assert_eq!(slab.payload(s), "hello");
        assert_eq!(slab.meta(s), (p(2), StepDepth::new(3)));
        slab.release(s);
        slab.release(s);
        assert_eq!(slab.live(), 1, "still one pending delivery");
        assert_eq!(slab.payload(s), "hello");
        slab.release(s);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut slab: PayloadSlab<u64> = PayloadSlab::new();
        let a = slab.insert(1, p(0), StepDepth::ONE, 1);
        slab.release(a);
        let b = slab.insert(2, p(1), StepDepth::ONE, 2);
        assert_eq!(a, b, "the free list recycles slots LIFO");
        assert_eq!(slab.capacity(), 1, "no second allocation");
        assert_eq!(*slab.payload(b), 2);
        slab.release(b);
        slab.release(b);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn retain_adds_a_pending_delivery() {
        let mut slab: PayloadSlab<u64> = PayloadSlab::new();
        let s = slab.insert(7, p(0), StepDepth::ONE, 1);
        slab.retain(s); // a duplication: two deliveries now share the slot
        slab.release(s);
        assert_eq!(slab.live(), 1, "duplicate still pending");
        assert_eq!(*slab.payload(s), 7);
        slab.release(s);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn interleaved_slots_stay_independent() {
        let mut slab: PayloadSlab<u64> = PayloadSlab::new();
        let a = slab.insert(10, p(0), StepDepth::ONE, 2);
        let b = slab.insert(20, p(1), StepDepth::new(2), 1);
        slab.release(a);
        assert_eq!(*slab.payload(a), 10);
        assert_eq!(*slab.payload(b), 20);
        slab.release(b);
        slab.release(a);
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.capacity(), 2);
    }
}
