//! Fabric-delivered cache-coherence channel.
//!
//! Structural commits on one compute server must tell every *other* compute
//! server to fix up its index cache.  A real deployment cannot reach into a
//! remote cache synchronously — the notification rides the network and lands
//! some round-trip later.  This module models that channel: a committer
//! *posts* an opaque coherence message toward a target compute server's
//! inbox ([`ClientCtx::post_coherence`](crate::client::ClientCtx::post_coherence)
//! charges the sender's NIC-port time and fixes the delivery instant), and
//! clients running on the target server *drain* the inbox at operation
//! boundaries, observing only messages whose delivery time has passed.
//!
//! The payload is deliberately type-erased (`Arc<dyn Any + Send + Sync>`):
//! the simulator knows about wires and clocks, not about index-cache node
//! images.  The index layer defines the concrete message enum and downcasts
//! on apply.
//!
//! Delivery is deterministic: draining returns ready messages ordered by
//! `(deliver_at, seq)`, so two runs over the same virtual-time schedule apply
//! the same messages in the same order.

use parking_lot::Mutex;
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One coherence message in flight toward (or sitting in) a compute server's
/// inbox.
#[derive(Clone)]
pub struct CoherenceMsg {
    /// Fabric-global sequence number; the deterministic tie-break for
    /// messages sharing a delivery instant.
    pub seq: u64,
    /// Compute server whose client posted the message.
    pub from_cs: u16,
    /// Virtual time at which the committer posted the message.
    pub posted_at: u64,
    /// Virtual time at which the message reaches the target inbox; a drain
    /// only observes messages with `deliver_at <= now`.
    pub deliver_at: u64,
    /// Opaque payload interpreted by the cache layer (the simulator does not
    /// know about index-cache images).
    pub payload: Arc<dyn Any + Send + Sync>,
}

impl fmt::Debug for CoherenceMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoherenceMsg")
            .field("seq", &self.seq)
            .field("from_cs", &self.from_cs)
            .field("posted_at", &self.posted_at)
            .field("deliver_at", &self.deliver_at)
            .field("payload", &"<opaque>")
            .finish()
    }
}

/// Per-compute-server coherence inboxes, owned by the fabric.
///
/// Inboxes are addressed modulo the compute-server count, like the
/// simulator's compute-server NIC ports, so logical thread ids can be used
/// directly.
pub struct CoherenceHub {
    seq: AtomicU64,
    inboxes: Vec<Mutex<Vec<CoherenceMsg>>>,
    /// Messages ever deposited per inbox (lifetime counter).
    posted: Vec<AtomicU64>,
    /// Messages ever handed to a drain per inbox (lifetime counter).
    acked: Vec<AtomicU64>,
}

impl fmt::Debug for CoherenceHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoherenceHub")
            .field("inboxes", &self.inboxes.len())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl CoherenceHub {
    /// Build one empty inbox per compute server.
    pub fn new(compute_servers: usize) -> Self {
        CoherenceHub {
            seq: AtomicU64::new(0),
            inboxes: (0..compute_servers).map(|_| Mutex::new(Vec::new())).collect(),
            posted: (0..compute_servers).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..compute_servers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Allocate the next fabric-global sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn inbox(&self, cs: u16) -> &Mutex<Vec<CoherenceMsg>> {
        &self.inboxes[cs as usize]
    }

    /// Deposit a message into compute server `to_cs`'s inbox.  The message is
    /// physically present immediately (memory effects apply at post time, as
    /// with every verb) but remains invisible to drains until `deliver_at`.
    pub fn deposit(&self, to_cs: u16, msg: CoherenceMsg) {
        let idx = to_cs as usize;
        // Count under the inbox lock so `posted - acked == pending_len` holds
        // at every instant an observer can acquire the lock.
        let mut inbox = self.inboxes[idx].lock();
        self.posted[idx].fetch_add(1, Ordering::Release);
        inbox.push(msg);
    }

    /// Remove and return every message for `cs` whose delivery time has
    /// passed, ordered by `(deliver_at, seq)`.
    pub fn drain_ready(&self, cs: u16, now: u64) -> Vec<CoherenceMsg> {
        let mut inbox = self.inbox(cs).lock();
        let mut ready: Vec<CoherenceMsg> = Vec::new();
        let mut i = 0;
        while i < inbox.len() {
            if inbox[i].deliver_at <= now {
                ready.push(inbox.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ready.sort_by_key(|m| (m.deliver_at, m.seq));
        let idx = cs as usize;
        self.acked[idx].fetch_add(ready.len() as u64, Ordering::Release);
        ready
    }

    /// Latest delivery time over `cs`'s pending messages, if any — the
    /// virtual instant after which a drain observes everything currently in
    /// flight.
    pub fn pending_horizon(&self, cs: u16) -> Option<u64> {
        self.inbox(cs).lock().iter().map(|m| m.deliver_at).max()
    }

    /// Number of messages currently sitting in `cs`'s inbox (delivered or
    /// not).
    pub fn pending_len(&self, cs: u16) -> usize {
        self.inbox(cs).lock().len()
    }

    /// Lifetime count of messages ever deposited into `cs`'s inbox.
    ///
    /// Together with [`CoherenceHub::acked_count`] this gives a quiesce loop a
    /// backend-agnostic termination condition: once `acked >= posted`-as-of-
    /// quiesce-start, everything that was in flight at the start has been
    /// handed to some drain — no virtual-time horizon required.
    pub fn posted_count(&self, cs: u16) -> u64 {
        self.posted[cs as usize].load(Ordering::Acquire)
    }

    /// Lifetime count of messages ever handed to a drain from `cs`'s inbox.
    pub fn acked_count(&self, cs: u16) -> u64 {
        self.acked[cs as usize].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, deliver_at: u64) -> CoherenceMsg {
        CoherenceMsg {
            seq,
            from_cs: 0,
            posted_at: 0,
            deliver_at,
            payload: Arc::new(()),
        }
    }

    #[test]
    fn drain_observes_only_delivered_messages_in_order() {
        let hub = CoherenceHub::new(2);
        hub.deposit(1, msg(2, 500));
        hub.deposit(1, msg(1, 500));
        hub.deposit(1, msg(3, 900));
        assert_eq!(hub.pending_len(1), 3);
        assert_eq!(hub.pending_horizon(1), Some(900));

        let ready = hub.drain_ready(1, 600);
        assert_eq!(ready.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(hub.pending_len(1), 1);

        // Nothing new delivered yet.
        assert!(hub.drain_ready(1, 600).is_empty());
        let rest = hub.drain_ready(1, 900);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, 3);
        assert_eq!(hub.pending_horizon(1), None);
    }

    #[test]
    fn posted_and_acked_counters_track_lifetime_flow() {
        let hub = CoherenceHub::new(2);
        assert_eq!(hub.posted_count(1), 0);
        hub.deposit(1, msg(0, 100));
        hub.deposit(1, msg(1, 200));
        assert_eq!(hub.posted_count(1), 2);
        assert_eq!(hub.acked_count(1), 0);
        assert_eq!(hub.drain_ready(1, 100).len(), 1);
        assert_eq!(hub.acked_count(1), 1);
        assert_eq!(hub.drain_ready(1, 200).len(), 1);
        assert_eq!(hub.acked_count(1), 2);
        // The invariant a quiesce loop relies on.
        assert_eq!(
            hub.posted_count(1) - hub.acked_count(1),
            hub.pending_len(1) as u64
        );
        // Counters are per-inbox.
        assert_eq!(hub.posted_count(0), 0);
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotone() {
        let hub = CoherenceHub::new(1);
        let a = hub.next_seq();
        let b = hub.next_seq();
        assert!(b > a);
    }
}
