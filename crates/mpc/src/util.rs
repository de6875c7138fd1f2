//! Partitioning and batching helpers shared by the CONGEST adapter and
//! the native MPC algorithms.

use crate::engine::{MachineId, MpcError};
use std::sync::Arc;

/// Greedy contiguous packing of per-vertex costs into machines: returns
/// `starts` with machine `k` hosting vertices `starts[k]..starts[k + 1]`,
/// every machine's total cost at most `cap`.
///
/// Shared by the CONGEST adapter and the native algorithms so their
/// partitioning (and its failure mode) cannot drift apart.
///
/// # Errors
///
/// [`MpcError::PreconditionViolated`] if a single vertex's cost exceeds
/// `cap` — no partition can host it within the memory budget.
pub(crate) fn greedy_partition(
    costs: impl Iterator<Item = usize>,
    cap: usize,
    too_fat: &'static str,
) -> Result<Vec<usize>, MpcError> {
    let mut starts = vec![0usize];
    let mut current = 0usize;
    let mut n = 0usize;
    for (v, cost) in costs.enumerate() {
        n = v + 1;
        if cost > cap {
            return Err(MpcError::PreconditionViolated { what: too_fat });
        }
        if current + cost > cap && current > 0 {
            starts.push(v);
            current = 0;
        }
        current += cost;
    }
    if n > 0 {
        starts.push(n);
    }
    Ok(starts)
}

/// The machine hosting each vertex under the partition `starts`
/// (machine `k` hosts `starts[k]..starts[k + 1]`), indexed by vertex:
/// built once per run and shared by every machine, so routing a message
/// is one table read.
pub(crate) fn owner_table(starts: &[usize]) -> Arc<[MachineId]> {
    starts
        .windows(2)
        .enumerate()
        .flat_map(|(k, w)| std::iter::repeat_n(MachineId::from_index(k), w[1] - w[0]))
        .collect()
}

/// Cuts a machine's staged outbox into one batch per destination
/// machine, in ascending destination order (the order the engines
/// deliver in).
///
/// `staged` holds `(destination, item)` pairs in send order; the sort is
/// stable, so each batch keeps its items in that order. `open` starts a
/// batch from its first item and `push` appends the others. `staged` is
/// left empty with its capacity, for reuse in the next round. A
/// machine's outbox usually spans only its few boundary-neighbour
/// machines, so this costs `O(k log k)` in the `k` staged items, never
/// `O(M)` in the machine count.
pub(crate) fn cut_batches<T, B>(
    staged: &mut Vec<(MachineId, T)>,
    open: impl Fn(T) -> B,
    push: impl Fn(&mut B, T),
) -> Vec<(MachineId, B)> {
    staged.sort_by_key(|&(dest, _)| dest);
    let mut batches: Vec<(MachineId, B)> = Vec::new();
    for (dest, item) in staged.drain(..) {
        match batches.last_mut() {
            Some((to, batch)) if *to == dest => push(batch, item),
            _ => batches.push((dest, open(item))),
        }
    }
    batches
}
