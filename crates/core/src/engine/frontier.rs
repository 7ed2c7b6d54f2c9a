//! The search frontier: the hash-consed candidate priority queue of
//! Algorithm 2, ordered by a pluggable [`SearchStrategy`].
//!
//! Items carry the candidate's [`ExprId`] plus the `Arc`'d expression so a
//! pop needs no arena lookup; callers that rank something else (the guard
//! pool's unbuilt children) pick their own item type. Insertion order is
//! tracked internally and used as the final tiebreak, making every strategy's exploration order
//! fully deterministic (the paper's `(c desc, size asc, insertion order)`
//! is [`PaperOrder`](crate::engine::PaperOrder) under this scheme).

use crate::engine::strategy::{Priority, SearchStrategy};
use rbsyn_lang::{Expr, ExprId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One frontier candidate, as returned by [`Frontier::pop`].
pub struct FrontierItem {
    /// Passed-assert count of the candidate's best evaluable ancestor.
    pub c: usize,
    /// AST node count.
    pub size: usize,
    /// Hash-consed identity.
    pub id: ExprId,
    /// The candidate itself (shared with the arena).
    pub expr: Arc<Expr>,
}

struct Entry<T> {
    pri: Priority,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // BinaryHeap pops the maximum: highest strategy priority first, FIFO
    // among equals.
    fn cmp(&self, other: &Self) -> Ordering {
        self.pri.cmp(&other.pri).then(other.seq.cmp(&self.seq))
    }
}

/// The work-list priority queue of one `generate` call (items of type
/// `T`, ranked by the `(c, size)` they were pushed with).
pub struct Frontier<'s, T = FrontierItem> {
    heap: BinaryHeap<Entry<T>>,
    strategy: &'s dyn SearchStrategy,
    seq: u64,
}

impl<'s> Frontier<'s> {
    /// Enqueues a candidate. Insertion order is recorded as the final
    /// tiebreak.
    pub fn push(&mut self, c: usize, size: usize, id: ExprId, expr: Arc<Expr>) {
        self.push_item(c, size, FrontierItem { c, size, id, expr });
    }

    /// Removes and returns the highest-priority candidate.
    pub fn pop(&mut self) -> Option<FrontierItem> {
        self.heap.pop().map(|e| e.item)
    }
}

impl<'s, T> Frontier<'s, T> {
    /// An empty frontier ordered by `strategy`.
    pub fn new(strategy: &'s dyn SearchStrategy) -> Frontier<'s, T> {
        Frontier {
            heap: BinaryHeap::new(),
            strategy,
            seq: 0,
        }
    }

    /// Enqueues `item` at the strategy's priority for `(c, size)`.
    /// Insertion order is recorded as the final tiebreak.
    pub fn push_item(&mut self, c: usize, size: usize, item: T) {
        let pri = self.strategy.priority(c, size);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { pri, seq, item });
    }

    /// [`Frontier::pop`] plus the popped item's rank `(priority, seq)`, so
    /// speculative consumers can re-enqueue it unchanged via
    /// [`Frontier::requeue`].
    pub fn pop_ranked(&mut self) -> Option<(Priority, u64, T)> {
        self.heap.pop().map(|e| (e.pri, e.seq, e.item))
    }

    /// Re-enqueues an item popped with [`Frontier::pop_ranked`] at its
    /// original rank (priority *and* insertion order), used to roll back
    /// a speculation window.
    pub fn requeue(&mut self, pri: Priority, seq: u64, item: T) {
        self.heap.push(Entry { pri, seq, item });
    }

    /// Would the current frontier head be popped before an item of rank
    /// `pri`? Anything pushed after that item lost the FIFO tiebreak, so
    /// strictly greater priority is the only way to outrank it.
    pub fn outranks(&self, pri: Priority) -> bool {
        self.heap.peek().is_some_and(|e| e.pri > pri)
    }

    /// Candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the frontier empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::strategy::PaperOrder;
    use rbsyn_lang::builder::int;
    use rbsyn_lang::ExprArena;

    fn item(arena: &mut ExprArena, n: i64) -> (ExprId, Arc<Expr>) {
        let id = arena.intern(int(n));
        (id, Arc::clone(arena.get(id)))
    }

    #[test]
    fn paper_order_pops_c_desc_size_asc_fifo() {
        let mut arena = ExprArena::new();
        let mut f = Frontier::new(&PaperOrder);
        let (i1, e1) = item(&mut arena, 1);
        let (i2, e2) = item(&mut arena, 2);
        let (i3, e3) = item(&mut arena, 3);
        let (i4, e4) = item(&mut arena, 4);
        f.push(0, 5, i1, e1); // low c
        f.push(1, 9, i2, e2); // high c, large
        f.push(1, 2, i3, e3); // high c, small → first
        f.push(1, 2, i4, e4); // tie with i3 → FIFO after it
        assert_eq!(f.len(), 4);
        assert_eq!(f.pop().unwrap().id, i3);
        assert_eq!(f.pop().unwrap().id, i4);
        assert_eq!(f.pop().unwrap().id, i2);
        assert_eq!(f.pop().unwrap().id, i1);
        assert!(f.is_empty());
        assert!(f.pop().is_none());
    }
}
