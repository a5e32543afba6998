//! Seeded network-fault injection at the socket layer.
//!
//! The engine's inference faults cover in-process failures; these are
//! their byte-level sibling. A [`FaultPlan`] of [`NetFault`]s is a
//! deterministic schedule keyed by a client's attempt counter; when an
//! attempt is faulted, the client's send path mangles the connection
//! instead of (or while) transmitting the request frame:
//!
//! * **Torn write** — only a prefix of the frame goes out before the
//!   socket is shut down. The server must answer with a typed
//!   `Truncated`/`Stalled` decode error, never a panic or a hang.
//! * **Stalled write** — the frame stops flowing mid-header for longer
//!   than the server's read deadline: the slow-loris probe.
//! * **Disconnect** — the connection drops before any frame bytes.
//! * **Garbage** — random bytes that are not a frame at all; the server
//!   must type them as `BadMagic`/CRC failures.
//!
//! The faulted attempt always looks like transport failure to the client,
//! which exercises its reconnect + backoff path under the same seed.

use apf_distsim::fault::{Fault, FaultPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One kind of injected socket mischief.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Send only the first `keep_bytes` of the frame, then shut down.
    TornWrite {
        /// Frame prefix length that actually reaches the wire.
        keep_bytes: usize,
    },
    /// Send a partial frame, stall for `stall_ms`, then shut down — long
    /// stalls must trip the server's slow-loris read deadline.
    StalledWrite {
        /// Frame prefix length sent before the stall.
        keep_bytes: usize,
        /// How long the connection goes silent mid-frame.
        stall_ms: u64,
    },
    /// Drop the connection before writing anything.
    Disconnect,
    /// Send `len` seeded garbage bytes instead of a frame.
    Garbage {
        /// Garbage byte count.
        len: usize,
    },
}

impl NetFaultKind {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::TornWrite { .. } => "torn_write",
            NetFaultKind::StalledWrite { .. } => "stalled_write",
            NetFaultKind::Disconnect => "disconnect",
            NetFaultKind::Garbage { .. } => "garbage",
        }
    }
}

/// A fault scheduled for one attempt (client-local attempt counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFault {
    /// 0-based attempt index the fault fires on.
    pub nth: u64,
    /// What happens to the socket.
    pub kind: NetFaultKind,
}

impl Fault for NetFault {
    type Key = u64;
    type Kind = NetFaultKind;
    fn key(&self) -> u64 {
        self.nth
    }
    fn kind(&self) -> NetFaultKind {
        self.kind
    }
    fn new(nth: u64, kind: NetFaultKind) -> Self {
        NetFault { nth, kind }
    }
}

/// Per-attempt probabilities for [`NetFaultRates::random`].
#[derive(Debug, Clone, Copy)]
pub struct NetFaultRates {
    /// Probability an attempt's frame is torn mid-write.
    pub torn: f64,
    /// Probability an attempt stalls mid-frame.
    pub stall: f64,
    /// Probability the connection drops before the frame.
    pub disconnect: f64,
    /// Probability the attempt sends garbage instead of a frame.
    pub garbage: f64,
    /// Stall duration range in milliseconds.
    pub stall_ms: (u64, u64),
}

impl Default for NetFaultRates {
    fn default() -> Self {
        NetFaultRates {
            torn: 0.05,
            stall: 0.03,
            disconnect: 0.04,
            garbage: 0.04,
            stall_ms: (40, 120),
        }
    }
}

impl NetFaultRates {
    /// Draws a seeded random plan over the first `attempts` attempts. Same
    /// `(seed, attempts, rates)` -> same plan. At most one fault per slot.
    /// `keep_bytes` draws small (inside the header) half the time and
    /// mid-payload otherwise, so both torn shapes occur.
    pub fn random(self, seed: u64, attempts: u64) -> FaultPlan<NetFault> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for nth in 0..attempts {
            if rng.gen_bool(self.torn) {
                let keep_bytes = if rng.gen_bool(0.5) {
                    rng.gen_range(1usize..super::frame::HEADER_LEN)
                } else {
                    rng.gen_range(super::frame::HEADER_LEN..super::frame::HEADER_LEN + 64)
                };
                events.push(NetFault { nth, kind: NetFaultKind::TornWrite { keep_bytes } });
            } else if rng.gen_bool(self.stall) {
                let keep_bytes = rng.gen_range(1usize..super::frame::HEADER_LEN);
                let stall_ms = rng.gen_range(self.stall_ms.0..=self.stall_ms.1);
                events.push(NetFault { nth, kind: NetFaultKind::StalledWrite { keep_bytes, stall_ms } });
            } else if rng.gen_bool(self.disconnect) {
                events.push(NetFault { nth, kind: NetFaultKind::Disconnect });
            } else if rng.gen_bool(self.garbage) {
                let len = rng.gen_range(1usize..96);
                events.push(NetFault { nth, kind: NetFaultKind::Garbage { len } });
            }
        }
        FaultPlan::new(events)
    }
}

/// Seeded garbage bytes for a [`NetFaultKind::Garbage`] attempt —
/// deterministic, and guaranteed not to start with the frame magic.
pub fn garbage_bytes(seed: u64, nth: u64, len: usize) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ nth.rotate_left(17));
    let mut out: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    if out.first() == Some(&b'A') {
        out[0] = b'Z';
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_replay_exactly() {
        let a = NetFaultRates::default().random(3, 200);
        let b = NetFaultRates::default().random(3, 200);
        assert_eq!(a, b);
        assert_ne!(a, NetFaultRates::default().random(4, 200));
    }

    #[test]
    fn all_fault_kinds_appear_at_default_rates() {
        let plan = NetFaultRates::default().random(11, 2000);
        let mut labels: Vec<&str> = plan.events().iter().map(|e| e.kind.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels, ["disconnect", "garbage", "stalled_write", "torn_write"]);
    }

    #[test]
    fn garbage_never_masquerades_as_a_frame() {
        for nth in 0..64 {
            let g = garbage_bytes(5, nth, 16);
            assert_eq!(g.len(), 16);
            assert_ne!(&g[..4], b"APFW");
            assert_eq!(g, garbage_bytes(5, nth, 16));
        }
    }
}
