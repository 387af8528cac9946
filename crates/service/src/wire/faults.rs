//! Seeded fault injection: reproducible chaos for the shard fleet.
//!
//! [`FaultTransport`] decorates any [`Transport`] and injects failures per a
//! [`FaultPlan`]: message drops, delivery delays, single-bit corruption,
//! truncation, and hard disconnects — on both the send and the receive
//! path. The injection decisions come from a seeded splitmix64 stream, so a
//! given plan replays the same fault pattern run after run; CI chaos tests
//! (`tests/fleet_parity.rs`) assert that the coordinator produces
//! byte-identical output under every schedule instead of hand-waving at
//! "eventually consistent".
//!
//! The decorator sits *above* the frame layer (it mangles message payloads,
//! not raw stream bytes), which makes each fault a well-formed delivery of a
//! damaged message: corruption is caught by the protocol's envelope
//! checksum, truncation by the decoder's exact-length checks, and neither
//! desynchronises the underlying frame stream. Disconnects, by contrast,
//! kill the decorated endpoint for good — every later operation reports
//! [`TransportError::Closed`], exactly like a peer process dying mid-item.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::wire::transport::{time_left, Transport, TransportError};

/// What to inject, with what probability. Rates are per-mille (`0..=1000`)
/// per message, evaluated independently on every send and receive.
///
/// The default plan injects nothing; tests override only the faults under
/// study. Deterministic triggers ([`FaultPlan::fail_first_sends`],
/// [`FaultPlan::disconnect_after_sends`]) exist alongside the random rates
/// so state-machine transitions (quarantine, mid-item worker death) can be
/// forced at an exact point instead of fished for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the splitmix64 decision stream.
    pub seed: u64,
    /// Per-mille chance a message is silently dropped.
    pub drop_per_mille: u32,
    /// Per-mille chance a message is delayed by [`FaultPlan::delay`].
    pub delay_per_mille: u32,
    /// How long a delayed message sleeps before delivery.
    pub delay: Duration,
    /// Per-mille chance one pseudo-random bit of the message is flipped.
    pub corrupt_per_mille: u32,
    /// Per-mille chance the message is truncated to a pseudo-random prefix.
    pub truncate_per_mille: u32,
    /// Per-mille chance the transport disconnects *instead of* delivering;
    /// once tripped the endpoint is dead for good.
    pub disconnect_per_mille: u32,
    /// Deterministically drop this many sends before any get through
    /// (forces a consecutive-failure streak, i.e. quarantine).
    pub fail_first_sends: u32,
    /// Deterministically disconnect after this many successful sends
    /// (forces a worker death at an exact protocol position).
    pub disconnect_after_sends: Option<u32>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5eed_f417,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::from_millis(5),
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            disconnect_per_mille: 0,
            fail_first_sends: 0,
            disconnect_after_sends: None,
        }
    }
}

/// How many faults of each kind a [`FaultTransport`] actually injected —
/// the ground truth a chaos test checks its assertions against (e.g. "this
/// schedule really dropped something, and parity still held").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Messages silently swallowed.
    pub drops: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Messages delivered with one bit flipped.
    pub corruptions: u64,
    /// Messages delivered truncated.
    pub truncations: u64,
    /// Hard disconnects (at most 1 per transport).
    pub disconnects: u64,
}

impl FaultStatsSnapshot {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.drops + self.delays + self.corruptions + self.truncations + self.disconnects
    }
}

#[derive(Default)]
struct FaultStats {
    drops: AtomicU64,
    delays: AtomicU64,
    corruptions: AtomicU64,
    truncations: AtomicU64,
    disconnects: AtomicU64,
}

/// splitmix64: tiny, seedable, good enough for fault scheduling. Kept
/// in-crate so the service layer needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The damage (if any) chosen for one message.
enum Verdict {
    Deliver(Option<Vec<u8>>),
    Drop,
    Disconnect,
}

/// A [`Transport`] decorator injecting seeded faults; see the module docs.
pub struct FaultTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: Mutex<u64>,
    sends: AtomicU64,
    dead: AtomicBool,
    stats: FaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultTransport {
            inner,
            plan,
            rng: Mutex::new(plan.seed),
            sends: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            stats: FaultStats::default(),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            drops: self.stats.drops.load(Ordering::Relaxed),
            delays: self.stats.delays.load(Ordering::Relaxed),
            corruptions: self.stats.corruptions.load(Ordering::Relaxed),
            truncations: self.stats.truncations.load(Ordering::Relaxed),
            disconnects: self.stats.disconnects.load(Ordering::Relaxed),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn disconnect(&self) -> TransportError {
        if !self.dead.swap(true, Ordering::Relaxed) {
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        TransportError::Closed
    }

    /// Rolls the plan's dice for one message. Delay (when drawn) is slept
    /// here; the other verdicts are applied by the caller.
    fn judge(&self, message: &[u8]) -> Verdict {
        let mut rng = self.rng.lock().unwrap();
        let roll =
            |state: &mut u64, per_mille: u32| splitmix64(state) % 1000 < u64::from(per_mille);
        if roll(&mut rng, self.plan.disconnect_per_mille) {
            return Verdict::Disconnect;
        }
        if roll(&mut rng, self.plan.drop_per_mille) {
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        let delayed = roll(&mut rng, self.plan.delay_per_mille);
        let mut mangled: Option<Vec<u8>> = None;
        if roll(&mut rng, self.plan.corrupt_per_mille) && !message.is_empty() {
            let bit = splitmix64(&mut rng) as usize % (message.len() * 8);
            let mut copy = message.to_vec();
            copy[bit / 8] ^= 1 << (bit % 8);
            self.stats.corruptions.fetch_add(1, Ordering::Relaxed);
            mangled = Some(copy);
        } else if roll(&mut rng, self.plan.truncate_per_mille) && !message.is_empty() {
            let keep = splitmix64(&mut rng) as usize % message.len();
            self.stats.truncations.fetch_add(1, Ordering::Relaxed);
            mangled = Some(message[..keep].to_vec());
        }
        drop(rng);
        if delayed {
            self.stats.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.plan.delay);
        }
        Verdict::Deliver(mangled)
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        let nth = self.sends.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.plan.disconnect_after_sends {
            if nth >= u64::from(limit) {
                return Err(self.disconnect());
            }
        }
        if nth < u64::from(self.plan.fail_first_sends) {
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        match self.judge(frame) {
            Verdict::Drop => Ok(()),
            Verdict::Disconnect => Err(self.disconnect()),
            Verdict::Deliver(Some(mangled)) => self.inner.send(&mangled),
            Verdict::Deliver(None) => self.inner.send(frame),
        }
    }

    fn recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        loop {
            if self.dead.load(Ordering::Relaxed) {
                return Err(TransportError::Closed);
            }
            let Some(frame) = self.inner.recv()? else {
                return Ok(None);
            };
            match self.judge(&frame) {
                Verdict::Drop => continue,
                Verdict::Disconnect => return Err(self.disconnect()),
                Verdict::Deliver(Some(mangled)) => return Ok(Some(mangled)),
                Verdict::Deliver(None) => return Ok(Some(frame)),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.dead.load(Ordering::Relaxed) {
                return Err(TransportError::Closed);
            }
            let remaining = time_left(deadline)?;
            let Some(frame) = self.inner.recv_timeout(remaining)? else {
                return Ok(None);
            };
            match self.judge(&frame) {
                Verdict::Drop => continue,
                Verdict::Disconnect => return Err(self.disconnect()),
                Verdict::Deliver(Some(mangled)) => return Ok(Some(mangled)),
                Verdict::Deliver(None) => return Ok(Some(frame)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::transport::LoopbackTransport;

    #[test]
    fn a_zero_plan_is_a_transparent_wrapper() {
        let (a, b) = LoopbackTransport::pair();
        let chaotic = FaultTransport::new(a, FaultPlan::default());
        chaotic.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(chaotic.recv().unwrap().unwrap(), b"world");
        assert_eq!(chaotic.stats(), FaultStatsSnapshot::default());
    }

    #[test]
    fn the_same_seed_replays_the_same_fault_schedule() {
        let run = |seed: u64| -> (Vec<Option<Vec<u8>>>, FaultStatsSnapshot) {
            let (a, b) = LoopbackTransport::pair();
            let chaotic = FaultTransport::new(
                a,
                FaultPlan {
                    seed,
                    drop_per_mille: 300,
                    corrupt_per_mille: 200,
                    truncate_per_mille: 200,
                    ..FaultPlan::default()
                },
            );
            let mut seen = Vec::new();
            for i in 0..40u8 {
                chaotic.send(&[i; 16]).unwrap();
                seen.push(b.recv_timeout(Duration::from_millis(5)).ok().flatten());
            }
            (seen, chaotic.stats())
        };
        let (first, first_stats) = run(42);
        let (again, again_stats) = run(42);
        assert_eq!(first, again, "same seed, same damage");
        assert_eq!(first_stats, again_stats);
        assert!(first_stats.total() > 0, "this schedule injects faults");
        let (other, _) = run(43);
        assert_ne!(first, other, "a different seed reschedules the chaos");
    }

    #[test]
    fn fail_first_sends_swallows_exactly_that_many() {
        let (a, b) = LoopbackTransport::pair();
        let chaotic = FaultTransport::new(
            a,
            FaultPlan {
                fail_first_sends: 3,
                ..FaultPlan::default()
            },
        );
        for i in 0..5u8 {
            chaotic.send(&[i]).unwrap();
        }
        assert_eq!(b.recv().unwrap().unwrap(), [3]);
        assert_eq!(b.recv().unwrap().unwrap(), [4]);
        assert_eq!(chaotic.stats().drops, 3);
    }

    #[test]
    fn disconnect_after_sends_kills_the_endpoint_for_good() {
        let (a, _b) = LoopbackTransport::pair();
        let chaotic = FaultTransport::new(
            a,
            FaultPlan {
                disconnect_after_sends: Some(2),
                ..FaultPlan::default()
            },
        );
        chaotic.send(b"one").unwrap();
        chaotic.send(b"two").unwrap();
        assert_eq!(chaotic.send(b"three"), Err(TransportError::Closed));
        assert_eq!(chaotic.recv(), Err(TransportError::Closed));
        assert_eq!(
            chaotic.recv_timeout(Duration::from_millis(1)),
            Err(TransportError::Closed)
        );
        assert_eq!(chaotic.stats().disconnects, 1);
    }
}
