//! Fabric-delivered cache coherence with a typestate commit protocol.
//!
//! Structural commits (merges, rebalances, root collapses, orphan
//! reclamation) change which nodes exist and what the surviving images look
//! like.  Before this module, the committer reached straight into every other
//! compute server's index cache and scrubbed it synchronously — a "god mode"
//! shortcut no real deployment has.  Now the committer *posts messages*:
//!
//! * [`CoherencePayload::Invalidate`] — "the node at `addr` is gone; do not
//!   cache any copy at or below `tombstone_version`" (the version gate closes
//!   the retire/re-cache race: a slow traversal holding a pre-retirement
//!   image cannot re-insert it after the scrub),
//! * [`CoherencePayload::RefreshTop`] — "here is the surviving image; heal
//!   your cache at the image's own level instead of letting it decay".
//!
//! Messages travel through the simulated fabric's one-way coherence channel
//! (`sherman_sim::CoherenceHub`): posting serializes through the committer's
//! NIC port and the delivery time includes the propagation delay, so remote
//! caches are *measurably stale* for the message's flight time.  Each
//! compute server drains its inbox at operation boundaries (the blocking
//! entry points and the pipelined scheduler's slot admission — the same
//! points, which keeps depth-1 pipelining identical to blocking).
//!
//! ## The typestate: commits cannot forget to publish
//!
//! The commit path is modeled as a one-way protocol:
//!
//! ```text
//! StructuralCommit --publish()--> PublishedCommit --retire_all()--> (freed)
//!    (building:                      (proof that                (addresses
//!     record invalidations            every message              quarantined
//!     and refreshes)                  was posted)                on free lists)
//! ```
//!
//! [`PublishedCommit`] has no public constructor: the only way to obtain one
//! is [`publish`], which posts every recorded message.  `release_plan` (the
//! merge path's lock release) demands a `&PublishedCommit`, and retiring a
//! freed address demands consuming the `PublishedCommit` that carries it —
//! so "committed but never invalidated" and "freed but never published" are
//! unrepresentable at compile time, not just unlikely.  The list of
//! addresses [`PublishedCommit::retire_all`] frees *is* the list of
//! invalidations that were posted; they cannot diverge.

use crate::cluster::Cluster;
use sherman_cache::CachedInternal;
use sherman_sim::{ClientCtx, CoherenceMsg, FabricBackend, GlobalAddress};
use std::sync::Arc;

/// Wire size charged for an `Invalidate` message: a packed global address
/// plus the tombstone version, padded to the fabric's atomic granularity.
const INVALIDATE_WIRE_BYTES: usize = 16;

/// What a coherence message asks the receiving compute server to do.
///
/// The sim's channel carries type-erased payloads (`Arc<dyn Any>`) so the
/// substrate stays index-agnostic; this enum is the concrete type the tree
/// posts and downcasts.
#[derive(Debug)]
pub(crate) enum CoherencePayload {
    /// The node at `addr` was freed by a structural commit; reject any
    /// cached copy whose node-level version is at or below
    /// `tombstone_version` (the freed image's bumped version).
    Invalidate {
        /// Address of the retired node.
        addr: GlobalAddress,
        /// Node-level version of the tombstone image written there.
        tombstone_version: u8,
    },
    /// A surviving image from a structural commit; offer it to the index
    /// cache at its own level (an image already cached is replaced in place;
    /// subject to the tombstone admission gate).
    RefreshTop {
        /// The surviving node's cacheable image, shared — one allocation
        /// fans out to every subscriber (and both payload variants of the
        /// same commit).
        node: Arc<CachedInternal>,
        /// Root level at publish time (places the cache's pinned window).
        root_level: u8,
    },
}

/// A structural commit under construction: the invalidations and refreshes
/// it must publish before its locks may be released.
///
/// Build one while planning the commit (phase 4 of the merge path), then
/// trade it for a [`PublishedCommit`] via [`publish`] — there is no other
/// way to release a lock plan or retire an address.
#[derive(Debug, Default)]
pub(crate) struct StructuralCommit {
    /// `(addr, tombstone_version)` per freed node — each becomes an
    /// `Invalidate` message *and* a retirement.
    invalidations: Vec<(GlobalAddress, u8)>,
    /// Surviving images to heal the caches with.
    refreshes: Vec<Arc<CachedInternal>>,
}

impl StructuralCommit {
    /// An empty commit (nothing freed, nothing to heal) — what failure
    /// paths publish so they can release their untouched lock plans.
    pub(crate) fn new() -> Self {
        StructuralCommit::default()
    }

    /// Record a node freed by this commit.  Publishing posts the
    /// invalidation; the returned [`PublishedCommit`] carries the address
    /// for retirement.
    pub(crate) fn invalidate(&mut self, addr: GlobalAddress, tombstone_version: u8) {
        self.invalidations.push((addr, tombstone_version));
    }

    /// Record a surviving image for the cache heal.
    pub(crate) fn refresh(&mut self, node: Arc<CachedInternal>) {
        self.refreshes.push(node);
    }
}

/// Proof that a structural commit's coherence messages were posted.
///
/// Only [`publish`] constructs one.  The merge path's `release_plan`
/// requires a reference, and the freed addresses can only be retired by
/// consuming it with [`PublishedCommit::retire_all`] — see the module docs
/// for the protocol diagram.
#[must_use = "a published commit carries the freed addresses; dropping it leaks them"]
#[derive(Debug)]
pub(crate) struct PublishedCommit {
    /// The invalidations that were posted, now doubling as the retirement
    /// work list.
    retired: Vec<(GlobalAddress, u8)>,
}

impl PublishedCommit {
    /// Quarantine every address this commit freed on its memory server's
    /// free list (epoch-based reclamation applies from here).
    /// Call *after* the lock plan is released: the tombstone images ride
    /// the release writes, and the address must not be reusable before its
    /// tombstone is visible.
    pub(crate) fn retire_all<B: FabricBackend>(self, cluster: &Cluster<B>, now: u64) {
        for (addr, tombstone_version) in self.retired {
            cluster.pool().retire_node(addr, tombstone_version, now);
        }
    }
}

/// Publish a structural commit: apply it to the committer's own cache
/// synchronously and post one message per remote compute server through the
/// fabric's coherence channel.  Runs under the commit's locks (posting
/// serializes through the committer's NIC port, like any other verb it
/// issues from the critical section).
///
/// The surviving images go out **before** the invalidations: a refreshed
/// parent no longer references the freed node and the survivor's widened
/// fence covers the freed node's range, so the scrub that follows removes
/// only the freed node's own image and no cached descendant is left without
/// a cached parent.
///
/// Root-collapse handling (the lost-heal fix): a `RefreshTop` needs the
/// current root level to place the cache's pinned window.  When the root hint is
/// unavailable (mid collapse), the refreshes are **queued** on the cluster
/// instead of dropped, and the next publish that observes a root hint
/// prepends them — the heal is deferred, never lost.
pub(crate) fn publish<B: FabricBackend>(
    cluster: &Cluster<B>,
    ctx: &mut ClientCtx<B::Channel>,
    cs_id: u16,
    commit: StructuralCommit,
) -> PublishedCommit {
    let StructuralCommit {
        invalidations,
        mut refreshes,
    } = commit;

    let root_level = match cluster.root_hint() {
        Some(hint) => {
            // Retry heals a previous publish queued while the root hint was
            // unavailable (oldest first, so newer images win ties later).
            let mut queued = cluster.take_pending_refreshes();
            if !queued.is_empty() {
                queued.extend(refreshes);
                refreshes = queued;
            }
            Some(hint.level)
        }
        None => {
            for node in refreshes.drain(..) {
                cluster.queue_pending_refresh(node);
            }
            None
        }
    };

    let counters = cluster.coherence_counters();
    let servers = cluster.compute_servers();
    let own = cs_id as usize;
    let node_size = cluster.config().node_size;

    if let Some(root_level) = root_level {
        for node in refreshes {
            let payload: Arc<dyn std::any::Any + Send + Sync> =
                Arc::new(CoherencePayload::RefreshTop {
                    node: Arc::clone(&node),
                    root_level,
                });
            for cs in 0..servers {
                if cs == own {
                    cluster.cache(cs as u16).refresh_top(Arc::clone(&node), root_level);
                    counters.local_applies.inc();
                } else {
                    ctx.post_coherence(cs as u16, node_size, Arc::clone(&payload));
                    counters.refreshes_posted.inc();
                }
            }
        }
    }

    for &(addr, tombstone_version) in &invalidations {
        // One payload allocation, shared by every remote inbox.
        let payload: Arc<dyn std::any::Any + Send + Sync> =
            Arc::new(CoherencePayload::Invalidate {
                addr,
                tombstone_version,
            });
        for cs in 0..servers {
            if cs == own {
                cluster.cache(cs as u16).apply_invalidate(addr, tombstone_version);
                counters.local_applies.inc();
            } else {
                ctx.post_coherence(cs as u16, INVALIDATE_WIRE_BYTES, Arc::clone(&payload));
                counters.invalidations_posted.inc();
            }
        }
    }

    PublishedCommit {
        retired: invalidations,
    }
}

/// Apply a batch of drained coherence messages to compute server `cs`'s
/// cache, recording each message's post→apply lag.  `now` is the drain
/// time on the draining client's clock.
pub(crate) fn apply<B: FabricBackend>(cluster: &Cluster<B>, cs: u16, now: u64, msgs: &[CoherenceMsg]) {
    let cache = cluster.cache(cs);
    let counters = cluster.coherence_counters();
    for msg in msgs {
        let Some(payload) = msg.payload.downcast_ref::<CoherencePayload>() else {
            // Foreign payload on the shared channel: not ours to apply.
            continue;
        };
        match payload {
            CoherencePayload::Invalidate {
                addr,
                tombstone_version,
            } => cache.apply_invalidate(*addr, *tombstone_version),
            CoherencePayload::RefreshTop { node, root_level } => {
                cache.refresh_top(Arc::clone(node), *root_level);
            }
        }
        counters.record_applied(now.saturating_sub(msg.posted_at));
    }
}
