//! Resource accounting for MPC runs: rounds, communication volume, and
//! peak per-machine memory.

use pga_runtime::FaultStats;

/// Aggregate resource metrics of a simulated MPC run.
///
/// The low-space MPC model is judged on three axes: the number of
/// synchronous rounds, the peak memory any single machine ever held
/// (which must stay within the `S = O(n^δ)` budget), and the total
/// communication volume. All sizes are in 64-bit **words**, the unit the
/// MPC literature charges (a word holds one `O(log n)`-bit identifier or
/// numeric value).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MpcMetrics {
    /// Number of synchronous rounds executed.
    pub rounds: usize,
    /// Total number of point-to-point messages delivered.
    pub messages: u64,
    /// Total communication volume in words.
    pub words: u64,
    /// Largest memory footprint any machine declared at the end of a
    /// round (or before round 0), in words.
    pub peak_memory_words: usize,
    /// Largest per-machine, per-round I/O volume observed (the maximum
    /// over machines and rounds of words sent and of words received).
    pub peak_round_io_words: usize,
    /// Per-round I/O profile: element `r` is the largest number of words
    /// any single machine sent or received in round `r`. Always has
    /// length [`rounds`](Self::rounds).
    pub io_profile: Vec<usize>,
    /// The adversary's whole-run fault tally (all zeros except
    /// [`FaultStats::delivered`] on a clean run).
    pub fault: FaultStats,
    /// The kernel's message-quiescence detector: the first round index
    /// from which no message was in flight for the rest of the run (0
    /// when the run never exchanged a message). Under faults this is
    /// the observable convergence round — how long the adversary kept
    /// the message plane busy.
    pub convergence_round: usize,
}

impl MpcMetrics {
    /// Average words per message, or 0.0 when nothing was sent.
    pub fn avg_message_words(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.words as f64 / self.messages as f64
        }
    }

    /// Folds `other` into `self` as a later execution phase: rounds,
    /// messages and words add; peaks take the maximum; the I/O profiles
    /// concatenate. Used by multi-phase drivers (Theorem 1 runs Phase I
    /// and Phase II as two MPC executions whose round counts add).
    pub fn absorb(&mut self, other: &MpcMetrics) {
        // A later phase's convergence round is offset by the rounds
        // already executed; a quiet phase leaves the detector alone.
        if other.convergence_round > 0 {
            self.convergence_round = self.rounds + other.convergence_round;
        }
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.peak_memory_words = self.peak_memory_words.max(other.peak_memory_words);
        self.peak_round_io_words = self.peak_round_io_words.max(other.peak_round_io_words);
        self.io_profile.extend_from_slice(&other.io_profile);
        self.fault.absorb(&other.fault);
    }
}

impl std::fmt::Display for MpcMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} words (peak memory {} words, peak round I/O {} words)",
            self.rounds,
            self.messages,
            self.words,
            self.peak_memory_words,
            self.peak_round_io_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_words() {
        let m = MpcMetrics {
            rounds: 2,
            messages: 4,
            words: 10,
            ..MpcMetrics::default()
        };
        assert!((m.avg_message_words() - 2.5).abs() < 1e-9);
        assert_eq!(MpcMetrics::default().avg_message_words(), 0.0);
    }

    #[test]
    fn absorb_adds_and_maxes() {
        let mut a = MpcMetrics {
            rounds: 3,
            messages: 5,
            words: 50,
            peak_memory_words: 100,
            peak_round_io_words: 20,
            io_profile: vec![20, 10, 5],
            ..Default::default()
        };
        let b = MpcMetrics {
            rounds: 2,
            messages: 1,
            words: 8,
            peak_memory_words: 70,
            peak_round_io_words: 30,
            io_profile: vec![30, 8],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 6);
        assert_eq!(a.words, 58);
        assert_eq!(a.peak_memory_words, 100);
        assert_eq!(a.peak_round_io_words, 30);
        assert_eq!(a.io_profile, vec![20, 10, 5, 30, 8]);
    }

    #[test]
    fn display_contains_fields() {
        let m = MpcMetrics {
            rounds: 7,
            messages: 2,
            words: 9,
            peak_memory_words: 11,
            peak_round_io_words: 3,
            io_profile: vec![3; 7],
            ..Default::default()
        };
        let s = format!("{m}");
        assert!(s.contains("7 rounds"));
        assert!(s.contains("peak memory 11 words"));
    }
}
