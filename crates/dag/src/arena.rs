//! Pooled storage for [`DagCursor`] state.
//!
//! The engines create one cursor per live job. With per-job `DagCursor`
//! values on the heap, a long simulation allocates (and frees) five `Vec`s
//! per job — millions of small objects for a `repro all` run. `CursorArena`
//! instead keeps cursors in slots that are *recycled* when a job completes:
//! [`CursorArena::alloc`] pops a free slot and [`DagCursor::reset`]s it in
//! place, reusing the slot's existing buffer capacity. Once the pool has
//! warmed up to the peak number of concurrently live jobs (and peak DAG
//! size), steady-state simulation performs no heap allocation per round.

use crate::cursor::DagCursor;
use crate::graph::JobDag;

/// Opaque handle to a cursor slot inside a [`CursorArena`].
///
/// A `CursorId` is only meaningful for the arena that issued it, and only
/// until that slot is [`CursorArena::release`]d; the engines store at most
/// one live id per job, so stale-handle reuse cannot arise there.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CursorId(u32);

impl CursorId {
    /// Slot index, for diagnostics.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab of recyclable [`DagCursor`] slots (LIFO free list).
///
/// LIFO reuse keeps the hottest slot's buffers in cache: the cursor freed
/// by the job that just completed is the first one handed to the next
/// arrival.
#[derive(Debug, Default)]
pub struct CursorArena {
    slots: Vec<DagCursor>,
    free: Vec<u32>,
}

impl CursorArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an arena with room for `n` slots before the slab itself
    /// reallocates (individual cursor buffers still grow on first use).
    pub fn with_capacity(n: usize) -> Self {
        CursorArena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Obtain a cursor initialized at the start of `dag`, recycling a
    /// released slot when one is available.
    pub fn alloc(&mut self, dag: &JobDag) -> CursorId {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize].reset(dag);
                CursorId(idx)
            }
            None => {
                let idx = self.slots.len();
                assert!(idx < u32::MAX as usize, "cursor arena slot overflow");
                self.slots.push(DagCursor::new(dag));
                CursorId(idx as u32)
            }
        }
    }

    /// Return `id`'s slot to the free list. The slot's buffers keep their
    /// capacity for the next [`CursorArena::alloc`].
    pub fn release(&mut self, id: CursorId) {
        debug_assert!(
            !self.free.contains(&id.0),
            "double release of cursor slot {}",
            id.0
        );
        self.free.push(id.0);
    }

    /// Shared access to the cursor in slot `id`.
    #[inline]
    pub fn get(&self, id: CursorId) -> &DagCursor {
        &self.slots[id.0 as usize]
    }

    /// Exclusive access to the cursor in slot `id`.
    #[inline]
    pub fn get_mut(&mut self, id: CursorId) -> &mut DagCursor {
        &mut self.slots[id.0 as usize]
    }

    /// Number of slots ever created (live + free).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Return every slot to the free list, keeping all buffer capacity.
    ///
    /// Bulk reset between independent runs sharing one arena (the batched
    /// engine recycles a lane's arena across replicas this way). Unlike
    /// per-slot [`CursorArena::release`], outstanding [`CursorId`]s are
    /// *all* invalidated — callers must drop theirs first.
    pub fn recycle_all(&mut self) {
        self.free.clear();
        // LIFO free list: push ascending so slot 0 (the longest-lived,
        // largest-capacity slot in typical runs) is handed out first.
        self.free.extend((0..self.slots.len() as u32).rev());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shapes, DagBuilder, UnitOutcome};

    #[test]
    fn alloc_matches_fresh_cursor() {
        let dag = shapes::diamond(3, 2);
        let mut arena = CursorArena::new();
        let id = arena.alloc(&dag);
        let fresh = DagCursor::new(&dag);
        assert_eq!(arena.get(id).ready_nodes(), fresh.ready_nodes());
        assert_eq!(arena.get(id).executed_units(), fresh.executed_units());
    }

    #[test]
    fn release_recycles_slot_lifo() {
        let dag = shapes::single_node(3);
        let mut arena = CursorArena::new();
        let a = arena.alloc(&dag);
        let b = arena.alloc(&dag);
        assert_ne!(a, b);
        assert_eq!(arena.capacity(), 2);
        arena.release(a);
        arena.release(b);
        // LIFO: last released comes back first.
        let c = arena.alloc(&dag);
        assert_eq!(c, b);
        let d = arena.alloc(&dag);
        assert_eq!(d, a);
        assert_eq!(arena.capacity(), 2);
    }

    #[test]
    fn recycled_slot_behaves_like_fresh_across_dag_shapes() {
        // Drive a cursor through a big DAG, release, re-alloc onto a small
        // one, and check the recycled slot is indistinguishable from fresh.
        let big = shapes::parallel_for(50, 8);
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let t = b.add_node(2);
        b.add_edge(s, t).unwrap();
        let small = b.build().unwrap();

        let mut arena = CursorArena::new();
        let id = arena.alloc(&big);
        // Execute the whole big DAG greedily.
        while !arena.get(id).is_complete() {
            let v = arena.get(id).ready_nodes()[0];
            let cur = arena.get_mut(id);
            cur.claim(v).unwrap();
            while let UnitOutcome::InProgress = cur.execute_unit(&big, v).unwrap() {}
        }
        arena.release(id);

        let id2 = arena.alloc(&small);
        assert_eq!(id2, id);
        let fresh = DagCursor::new(&small);
        assert_eq!(arena.get(id2).ready_nodes(), fresh.ready_nodes());
        assert_eq!(arena.get(id2).completed_nodes(), 0);
        assert_eq!(arena.get(id2).executed_units(), 0);
        assert_eq!(arena.get(id2).remaining_work(1).unwrap(), 2);
        assert!(!arena.get(id2).is_complete());
    }

    #[test]
    fn recycle_all_resets_free_list_and_reuses_capacity() {
        let dag = shapes::single_node(2);
        let mut arena = CursorArena::new();
        let a = arena.alloc(&dag);
        let _b = arena.alloc(&dag);
        arena.get_mut(a).claim(0).unwrap();
        arena.release(a);
        // One live slot, one free slot; recycle_all reclaims both.
        arena.recycle_all();
        assert_eq!(arena.capacity(), 2);
        // Slot 0 is handed out first and is indistinguishable from fresh.
        let c = arena.alloc(&dag);
        assert_eq!(c.index(), 0);
        let fresh = DagCursor::new(&dag);
        assert_eq!(arena.get(c).ready_nodes(), fresh.ready_nodes());
        assert_eq!(arena.get(c).executed_units(), 0);
        let d = arena.alloc(&dag);
        assert_eq!(d.index(), 1);
        assert_eq!(arena.capacity(), 2, "no new slots created");
    }

    #[test]
    fn interleaved_alloc_release_keeps_slots_independent() {
        let dag = shapes::single_node(5);
        let mut arena = CursorArena::new();
        let a = arena.alloc(&dag);
        let b = arena.alloc(&dag);
        arena.get_mut(a).claim(0).unwrap();
        arena.get_mut(a).execute_unit(&dag, 0).unwrap();
        assert_eq!(arena.get(a).executed_units(), 1);
        assert_eq!(arena.get(b).executed_units(), 0);
        arena.release(b);
        let c = arena.alloc(&dag);
        assert_eq!(c, b);
        // `a`'s progress untouched by the recycle.
        assert_eq!(arena.get(a).executed_units(), 1);
        assert_eq!(arena.get(c).executed_units(), 0);
    }
}
