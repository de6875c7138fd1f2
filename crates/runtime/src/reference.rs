//! A deliberately naive reference executor: the test oracle for
//! [`execute`](crate::execute).
//!
//! [`run`] implements the synchronous round semantics in the most
//! direct way available: per-actor `Vec` inboxes, every actor stepped
//! every round, and a fresh set of buffers each round. It has no
//! shards, lanes, probes, delivery planes, dormancy cache or
//! scheduling policy, and it shares no code with the kernel's loop —
//! only the [`ExecModel`] interface. On the clean plane every
//! configuration of [`execute`](crate::execute) must match it exactly:
//! outputs, metrics and errors.

use crate::{ActorId, ExecModel, FaultStats, MsgSink, RoundProfile, Run};

/// The reference executor's sink: every message goes straight into
/// next round's inbox of its destination, and its receive charge into
/// the round's tally.
struct Mailbox<'a, M: ExecModel> {
    next: &'a mut [Vec<(M::Id, M::Msg)>],
    recv: &'a mut [usize],
}

impl<M: ExecModel> MsgSink<M> for Mailbox<'_, M> {
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        self.recv[to.index()] += model.recv_charge(&msg);
        self.next[to.index()].push((from, msg));
        1
    }
}

/// Runs `nodes` to completion, stepping every actor in id order every
/// round, and stops once every actor is done and no mail is in flight.
///
/// # Errors
///
/// Returns the model's error: the lowest-indexed actor's violation in
/// the first round that has one, or the round-limit error once
/// `max_rounds` rounds ran without quiescence.
pub fn run<M: ExecModel>(
    model: &M,
    mut nodes: Vec<M::Node>,
    max_rounds: usize,
) -> Result<Run<M::Output, M::Metrics>, M::Error> {
    let n = nodes.len();
    let mut metrics = M::Metrics::default();
    model.pre_run(&nodes, &mut metrics)?;
    let mut inboxes: Vec<Vec<(M::Id, M::Msg)>> = (0..n).map(|_| Vec::new()).collect();
    let mut scratch = M::SendScratch::default();
    let mut delivered = 0;
    let mut convergence = 0;
    let mut round = 0;
    loop {
        let all_done = (nodes.iter().enumerate()).all(|(i, node)| model.poll(node, i, round).done);
        if all_done && inboxes.iter().all(Vec::is_empty) {
            break;
        }
        if round >= max_rounds {
            return Err(model.round_limit_error(max_rounds));
        }
        let mut next: Vec<Vec<(M::Id, M::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut recv = vec![0; n];
        let mut acc = RoundProfile::default();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut mailbox = Mailbox::<M> {
                next: &mut next,
                recv: &mut recv,
            };
            model.step(
                node,
                i,
                round,
                &inboxes[i],
                &mut scratch,
                &mut acc,
                &mut mailbox,
            )?;
        }
        if M::TRACK_RECV {
            model.check_recv(&recv, round)?;
        } else {
            recv.clear();
        }
        if acc.messages > 0 {
            convergence = round + 2;
        }
        delivered += acc.messages;
        model.end_round(&acc, &recv, round, &mut metrics);
        inboxes = next;
        round += 1;
    }
    let delivered = FaultStats {
        delivered,
        ..FaultStats::default()
    };
    model.finish(&mut metrics, &delivered, convergence);
    let outputs = (nodes.iter().enumerate())
        .map(|(i, node)| model.output(node, i, round))
        .collect();
    Ok(Run { outputs, metrics })
}
