//! Ring all-reduce: an analytic cost model and a real multi-threaded
//! implementation over bounded `std::sync::mpsc` channels, plus the cost
//! model of the binary-tree alternative it is compared against.
//!
//! The thread version implements the classic two-phase ring algorithm
//! (reduce-scatter then all-gather, each `P - 1` steps over `1/P`-sized
//! segments); it is what the data-parallel engine uses to average
//! gradients, so gradient synchronization in this workspace is genuinely
//! implemented rather than assumed.
//!
//! Every message on the wire carries a CRC-32 of its payload. A receiver
//! that sees a checksum mismatch aborts the collective, which surfaces as
//! an [`AllReduceError`] the engine can retry — transient link corruption
//! is detected instead of silently averaged into the gradients.

use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use apf_core::crc32::crc32_f32;

use crate::gpu::Fabric;

/// Why a collective failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceError {
    /// A message failed its CRC-32 check.
    Corrupted {
        /// Rank that detected the bad message.
        detected_by: usize,
    },
    /// A peer disappeared mid-collective (its channels disconnected).
    Disconnected {
        /// Rank that observed the disconnect.
        observed_by: usize,
    },
}

impl fmt::Display for AllReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllReduceError::Corrupted { detected_by } => {
                write!(f, "all-reduce checksum mismatch detected by rank {}", detected_by)
            }
            AllReduceError::Disconnected { observed_by } => {
                write!(f, "all-reduce peer disconnected, observed by rank {}", observed_by)
            }
        }
    }
}

impl std::error::Error for AllReduceError {}

/// A payload plus the CRC-32 of its contents.
type Message = (Vec<f32>, u32);

/// Wraps a payload with its checksum, optionally flipping one bit AFTER
/// the checksum is computed (the fault injector's model of transient link
/// corruption). Returns whether corruption was actually applied.
fn seal(payload: Vec<f32>, corrupt: bool) -> (Message, bool) {
    let crc = crc32_f32(&payload);
    let mut payload = payload;
    let mut applied = false;
    if corrupt && !payload.is_empty() {
        let bits = payload[0].to_bits() ^ 0x0000_0400;
        payload[0] = f32::from_bits(bits);
        applied = true;
    }
    ((payload, crc), applied)
}

/// Verifies a received message's checksum.
fn open(msg: Message, rank: usize) -> Result<Vec<f32>, AllReduceError> {
    let (payload, crc) = msg;
    if crc32_f32(&payload) != crc {
        return Err(AllReduceError::Corrupted { detected_by: rank });
    }
    Ok(payload)
}

/// Picks the most informative error out of a set of per-worker results:
/// corruption beats disconnection (workers that abort on corruption tear
/// down their channels, so peers see disconnects as a side effect).
fn merge_errors(
    results: Vec<Result<Vec<f32>, AllReduceError>>,
) -> Result<Vec<Vec<f32>>, AllReduceError> {
    let mut disconnect = None;
    let mut ok = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(buf) => ok.push(buf),
            Err(e @ AllReduceError::Corrupted { .. }) => return Err(e),
            Err(e @ AllReduceError::Disconnected { .. }) => disconnect = Some(e),
        }
    }
    match disconnect {
        Some(e) => Err(e),
        None => Ok(ok),
    }
}

/// Predicted seconds for a ring all-reduce of `bytes` over `gpus` devices.
///
/// Standard model: `2 * (P-1)/P * bytes` cross the bottleneck link, plus
/// `2 * (P-1)` hop latencies.
pub fn ring_allreduce_seconds(bytes: f64, gpus: usize, fabric: &Fabric) -> f64 {
    if gpus <= 1 {
        return 0.0;
    }
    let p = gpus as f64;
    let bw = fabric.ring_bandwidth(gpus);
    let lat = fabric.ring_latency(gpus);
    2.0 * (p - 1.0) / p * bytes / bw + 2.0 * (p - 1.0) * lat
}

/// Predicted seconds for a binary-tree all-reduce (reduce-to-root then
/// broadcast) of `bytes` over `gpus` devices: `2 * log2(P)` hops each
/// carrying the full buffer. Better than the ring for small messages
/// (O(log P) latency), worse for large ones (the root link carries full
/// buffers).
pub fn tree_allreduce_seconds(bytes: f64, gpus: usize, fabric: &Fabric) -> f64 {
    if gpus <= 1 {
        return 0.0;
    }
    let hops = 2.0 * (gpus as f64).log2().ceil();
    let bw = fabric.ring_bandwidth(gpus);
    let lat = fabric.ring_latency(gpus);
    hops * (bytes / bw + lat)
}

/// Real ring all-reduce across threads: every worker contributes one buffer
/// and receives the elementwise **mean** of all buffers.
///
/// Buffers must share one length. Workers are OS threads connected in a
/// ring of bounded channels; each runs reduce-scatter then all-gather on
/// `P` segments. Messages are CRC-checked; since no corruption is injected
/// here, a failure is impossible and this wrapper unwraps it.
pub fn ring_allreduce_mean(buffers: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    ring_allreduce_mean_checked(buffers, &[]).expect("uncorrupted ring all-reduce cannot fail")
}

/// Ring all-reduce with checksum verification and optional fault injection:
/// each rank listed in `corrupt_ranks` flips one bit of its first outgoing
/// message (after the CRC is computed, modelling corruption on the wire).
///
/// # Errors
/// [`AllReduceError::Corrupted`] when a receiver detects a bad checksum;
/// the collective aborts and no buffer is returned, so callers retry with
/// their retained inputs.
pub fn ring_allreduce_mean_checked(
    mut buffers: Vec<Vec<f32>>,
    corrupt_ranks: &[usize],
) -> Result<Vec<Vec<f32>>, AllReduceError> {
    let p = buffers.len();
    assert!(p > 0, "no buffers");
    let n = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == n),
        "all buffers must have equal length"
    );
    if p == 1 || n == 0 {
        return Ok(buffers);
    }

    // Segment boundaries: P segments covering 0..n.
    let bounds: Vec<(usize, usize)> = (0..p)
        .map(|s| (s * n / p, (s + 1) * n / p))
        .collect();

    // Ring channels: worker i sends to (i + 1) % p.
    let mut senders: Vec<Option<SyncSender<Message>>> = Vec::with_capacity(p);
    let mut receivers: Vec<Option<Receiver<Message>>> = (0..p).map(|_| None).collect();
    for i in 0..p {
        let (tx, rx) = sync_channel::<Message>(2);
        senders.push(Some(tx));
        receivers[(i + 1) % p] = Some(rx);
    }

    let inv_p = 1.0f32 / p as f32;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .drain(..)
            .enumerate()
            .map(|(rank, mut buf)| {
                let tx = senders[rank].take().expect("sender");
                let rx = receivers[rank].take().expect("receiver");
                let bounds = bounds.clone();
                let mut corrupt_pending = corrupt_ranks.contains(&rank);
                scope.spawn(move || -> Result<Vec<f32>, AllReduceError> {
                    let fail = AllReduceError::Disconnected { observed_by: rank };
                    // Phase 1: reduce-scatter. After step k, the segment
                    // `(rank - k) mod p` we just received holds partial sums.
                    for k in 0..p - 1 {
                        let send_seg = (rank + p - k) % p;
                        let (s0, s1) = bounds[send_seg];
                        let (msg, applied) = seal(buf[s0..s1].to_vec(), corrupt_pending);
                        corrupt_pending &= !applied;
                        tx.send(msg).map_err(|_| fail)?;
                        let recv_seg = (rank + p - k - 1) % p;
                        let (r0, r1) = bounds[recv_seg];
                        let incoming = open(rx.recv().map_err(|_| fail)?, rank)?;
                        for (dst, src) in buf[r0..r1].iter_mut().zip(incoming.iter()) {
                            *dst += src;
                        }
                    }
                    // Rank now owns the fully-reduced segment (rank + 1) % p.
                    // Scale it to a mean before circulating.
                    {
                        let own = (rank + 1) % p;
                        let (s0, s1) = bounds[own];
                        for v in &mut buf[s0..s1] {
                            *v *= inv_p;
                        }
                    }
                    // Phase 2: all-gather of the reduced segments.
                    for k in 0..p - 1 {
                        let send_seg = (rank + 1 + p - k) % p;
                        let (s0, s1) = bounds[send_seg];
                        let (msg, applied) = seal(buf[s0..s1].to_vec(), corrupt_pending);
                        corrupt_pending &= !applied;
                        tx.send(msg).map_err(|_| fail)?;
                        let recv_seg = (rank + p - k) % p;
                        let (r0, r1) = bounds[recv_seg];
                        let incoming = open(rx.recv().map_err(|_| fail)?, rank)?;
                        buf[r0..r1].copy_from_slice(&incoming);
                    }
                    Ok(buf)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });
    merge_errors(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect_mean(inputs: &[Vec<f32>]) -> Vec<f32> {
        let p = inputs.len() as f32;
        let n = inputs[0].len();
        (0..n)
            .map(|i| inputs.iter().map(|b| b[i]).sum::<f32>() / p)
            .collect()
    }

    #[test]
    fn allreduce_two_workers() {
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let expect = expect_mean(&inputs);
        let out = ring_allreduce_mean(inputs);
        for o in &out {
            for (a, b) in o.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-6, "{:?} vs {:?}", o, expect);
            }
        }
    }

    #[test]
    fn allreduce_matches_mean_for_many_workers() {
        for p in [2usize, 3, 4, 7, 8] {
            let inputs: Vec<Vec<f32>> = (0..p)
                .map(|r| (0..103).map(|i| ((r * 131 + i * 7) % 23) as f32 - 11.0).collect())
                .collect();
            let expect = expect_mean(&inputs);
            let out = ring_allreduce_mean(inputs);
            assert_eq!(out.len(), p);
            for o in &out {
                for (a, b) in o.iter().zip(expect.iter()) {
                    assert!((a - b).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn allreduce_single_worker_is_identity() {
        let out = ring_allreduce_mean(vec![vec![1.0, 2.0]]);
        assert_eq!(out, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn allreduce_short_buffer_edge_case() {
        // Fewer elements than workers: some segments are empty.
        let inputs = vec![vec![4.0], vec![8.0], vec![0.0]];
        let out = ring_allreduce_mean(inputs);
        for o in &out {
            assert!((o[0] - 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn corrupted_message_is_detected_and_aborts() {
        for p in [2usize, 3, 5] {
            for bad_rank in 0..p {
                let inputs: Vec<Vec<f32>> =
                    (0..p).map(|r| (0..17).map(|i| (r * 31 + i) as f32).collect()).collect();
                let err = ring_allreduce_mean_checked(inputs, &[bad_rank])
                    .expect_err("corruption must be detected");
                assert!(
                    matches!(err, AllReduceError::Corrupted { .. }),
                    "p={} bad_rank={} got {:?}",
                    p,
                    bad_rank,
                    err
                );
            }
        }
    }

    #[test]
    fn checked_allreduce_without_faults_matches_mean() {
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let expect = expect_mean(&inputs);
        let out = ring_allreduce_mean_checked(inputs, &[]).expect("no faults injected");
        for o in &out {
            for (a, b) in o.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn seal_and_open_round_trip_and_detect_flip() {
        let (msg, applied) = seal(vec![1.5, -2.0], false);
        assert!(!applied);
        assert_eq!(open(msg, 0).unwrap(), vec![1.5, -2.0]);

        let (bad, applied) = seal(vec![1.5, -2.0], true);
        assert!(applied);
        assert_eq!(open(bad, 3), Err(AllReduceError::Corrupted { detected_by: 3 }));

        // Empty payloads cannot carry the injected flip.
        let (empty, applied) = seal(Vec::new(), true);
        assert!(!applied);
        assert_eq!(open(empty, 0).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn cost_model_monotonic_in_bytes_and_capped_factor() {
        let f = Fabric::frontier();
        let t1 = ring_allreduce_seconds(1e6, 8, &f);
        let t2 = ring_allreduce_seconds(2e6, 8, &f);
        assert!(t2 > t1);
        // The (P-1)/P factor approaches 1: doubling GPUs at fixed bytes
        // less-than-doubles the bandwidth term.
        let t8 = ring_allreduce_seconds(1e9, 8, &f);
        let t1024 = ring_allreduce_seconds(1e9, 1024, &f);
        assert!(t1024 < t8 * 2.0);
        assert_eq!(ring_allreduce_seconds(1e9, 1, &f), 0.0);
    }

    #[test]
    fn cost_model_tradeoff_ring_vs_tree() {
        let f = Fabric::frontier();
        // Small message, many GPUs: tree's O(log P) latency wins.
        let small = 1e3;
        let t_tree = tree_allreduce_seconds(small, 1024, &f);
        let t_ring = ring_allreduce_seconds(small, 1024, &f);
        assert!(t_tree < t_ring, "tree {} vs ring {}", t_tree, t_ring);
        // Large message: ring's (P-1)/P bandwidth term wins.
        let large = 1e9;
        let t_tree = tree_allreduce_seconds(large, 64, &f);
        let t_ring = ring_allreduce_seconds(large, 64, &f);
        assert!(t_ring < t_tree, "ring {} vs tree {}", t_ring, t_tree);
        assert_eq!(tree_allreduce_seconds(large, 1, &f), 0.0);
    }
}
