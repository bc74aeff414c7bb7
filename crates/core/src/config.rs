//! Tree geometry ([`TreeConfig`]) and technique selection ([`TreeOptions`]).

pub use sherman_locks::LockStrategy;

/// Geometry and sizing of the tree, independent of which techniques are
/// enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Size of every tree node in bytes (the paper uses 1 KB).
    pub node_size: usize,
    /// Bytes occupied by a key inside a node.  Keys are logically 64-bit; the
    /// extra bytes are padding so that the sensitivity experiment of
    /// Figure 15(a–b) (key size 16 B – 1 KB) can be reproduced.
    pub key_size: usize,
    /// Bytes occupied by a value inside a leaf entry.
    pub value_size: usize,
    /// Target fill factor used by bulkload (the paper bulkloads 80 % full).
    pub leaf_fill: f64,
    /// Capacity of each compute server's index cache in bytes (each cached
    /// image is charged a node header and its children packed to the widths
    /// they need).
    pub cache_bytes: usize,
    /// Chunk size used by the two-stage allocator (8 MB in the paper; tests
    /// use something smaller).
    pub chunk_bytes: u64,
    /// Upper bound on consistency-check retries of a single read before the
    /// operation is reported as failed (guards against livelock bugs; the
    /// paper's wraparound guard serves the same purpose).
    pub max_read_retries: u32,
    /// Upper bound on traversal restarts per operation.
    pub max_restarts: u32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            node_size: 1024,
            key_size: 8,
            value_size: 8,
            leaf_fill: 0.8,
            cache_bytes: 16 << 20,
            chunk_bytes: 1 << 20,
            max_read_retries: 1_000,
            max_restarts: 10_000,
        }
    }
}

impl TreeConfig {
    /// A configuration with small nodes and caches for unit tests.
    pub fn small_test() -> Self {
        TreeConfig {
            node_size: 256,
            cache_bytes: 1 << 20,
            chunk_bytes: 64 << 10,
            ..TreeConfig::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_size < 128 {
            return Err("node_size must be at least 128 bytes".into());
        }
        if self.key_size < 8 || self.value_size < 8 {
            return Err("key_size and value_size must be at least 8 bytes".into());
        }
        if !(0.1..=1.0).contains(&self.leaf_fill) {
            return Err("leaf_fill must be within [0.1, 1.0]".into());
        }
        if self.chunk_bytes < self.node_size as u64 {
            return Err("chunk_bytes must be at least node_size".into());
        }
        let layout = crate::layout::NodeLayout::new(self);
        if layout.leaf_capacity() < 4 {
            return Err("node_size too small for at least 4 leaf entries".into());
        }
        if layout.internal_capacity() < 4 {
            return Err("node_size too small for at least 4 internal entries".into());
        }
        if layout.internal_capacity() > usize::from(u16::MAX) {
            return Err("node_size too large: internal slots are numbered in 16 bits".into());
        }
        Ok(())
    }
}

/// How leaf nodes are laid out and how lock-free readers validate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafFormat {
    /// Sorted leaves, whole-node write-back, node-level version pair
    /// (the FG+ baseline).
    SortedNodeVersion,
    /// Unsorted leaves with per-entry version pairs in addition to the
    /// node-level pair: entry-granular write-back (Sherman's two-level
    /// versions, §4.4).
    UnsortedTwoLevel,
}

impl LeafFormat {
    /// Whether leaves keep their entries sorted (and therefore shift entries
    /// on insert/delete and write back whole nodes).
    pub fn is_sorted(&self) -> bool {
        !matches!(self, LeafFormat::UnsortedTwoLevel)
    }
}

/// When should a tree operation offload its traversal to the memory server's
/// wimpy compute (typed RPCs interpreted server-side by the bounded
/// interpreter in the crate's `offload` module)?
///
/// Offloading collapses a multi-level cache-miss traversal into a single
/// round trip, but serializes through the memory server's slow management
/// core — so it wins exactly when the client would otherwise pay several
/// dependent round trips (cold caches, deep trees, congested fabric) and
/// loses when the index cache already answers in one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffloadPolicy {
    /// Never offload: every traversal runs client-side with one-sided verbs
    /// (the paper's behaviour, and the default).
    #[default]
    Never,
    /// Offload unconditionally: every cache-missed descent of a point
    /// operation ships as a traverse RPC, and a lookup whose cache already
    /// names its leaf still trades that one read for a `LeafSearch` RPC (the
    /// loss region [`OffloadPolicy::Adaptive`] exists to avoid).  Scans never
    /// offload.
    Always,
    /// Offload only when it is likely to win: the uncached suffix of the
    /// path below the deepest cached image would leave multiple dependent
    /// round trips to pay, or the client's read-latency EWMA says
    /// the fabric is congested enough that one serialized RPC beats several
    /// round trips.
    Adaptive,
}

impl OffloadPolicy {
    /// Whether this policy can ever choose the offload arm.
    pub fn may_offload(&self) -> bool {
        !matches!(self, OffloadPolicy::Never)
    }
}

/// Which of Sherman's techniques are enabled — the axis of the paper's
/// ablation study (Figures 10 and 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeOptions {
    /// Combine dependent commands on one queue pair into doorbell batches:
    /// at the tail of a write the `RDMA_WRITE`s (write-back + lock release,
    /// plus the sibling write-back on co-located splits), at its head the
    /// lock-acquiring CAS and the `RDMA_READ` of the node it guards.
    pub combine_commands: bool,
    /// Exclusive-lock design.
    pub lock_strategy: LockStrategy,
    /// Leaf layout / consistency-check design.
    pub leaf_format: LeafFormat,
    /// Occupancy fraction below which a delete attempts to merge the node
    /// with a sibling (structural deletes, beyond the paper: Sherman itself
    /// never shrinks the tree).  Merges are direction-complete: the right
    /// B-link sibling is absorbed when one exists under the same parent, and
    /// a rightmost child folds into its left sibling instead.  A level's
    /// first leaf (lower fence 0) is held to no threshold: it merges once
    /// empty, so at most that one leaf of a tree sits below the threshold by
    /// this rule.  `0.0` disables merging and reproduces the paper's
    /// grow-only behaviour.
    pub merge_threshold: f64,
    /// When to offload cache-missing traversals to the memory server
    /// (server-side typed RPCs).  [`OffloadPolicy::Never`] — the default and
    /// the paper's behaviour — keeps every traversal client-side.
    pub offload: OffloadPolicy,
}

impl TreeOptions {
    /// Default [`TreeOptions::merge_threshold`]: merge a node once it drops
    /// below a quarter of its capacity (a level's first leaf once empty).
    pub const DEFAULT_MERGE_THRESHOLD: f64 = 0.25;

    /// FG+ — the paper's strengthened baseline: index cache and WRITE-based
    /// lock release (§5.1.2).
    pub fn fg_plus() -> Self {
        TreeOptions {
            combine_commands: false,
            lock_strategy: LockStrategy::HostCasWrite,
            leaf_format: LeafFormat::SortedNodeVersion,
            merge_threshold: Self::DEFAULT_MERGE_THRESHOLD,
            offload: OffloadPolicy::Never,
        }
    }

    /// Disable structural deletes, reproducing the paper's grow-only tree.
    pub fn without_structural_deletes(self) -> Self {
        TreeOptions {
            merge_threshold: 0.0,
            ..self
        }
    }

    /// Whether deletes may merge underfull nodes and reclaim their memory.
    pub fn structural_deletes_enabled(&self) -> bool {
        self.merge_threshold > 0.0
    }

    /// Set the server-side traversal offload policy.
    pub fn with_offload(self, offload: OffloadPolicy) -> Self {
        TreeOptions { offload, ..self }
    }

    /// FG+ plus command combination ("+Combine").
    pub fn plus_combine() -> Self {
        TreeOptions {
            combine_commands: true,
            ..TreeOptions::fg_plus()
        }
    }

    /// "+On-Chip": locks move into NIC device memory.
    pub fn plus_onchip() -> Self {
        TreeOptions {
            lock_strategy: LockStrategy::OnChip,
            ..TreeOptions::plus_combine()
        }
    }

    /// "+Hierarchical": full HOCL (local lock tables, wait queues, handover).
    pub fn plus_hierarchical() -> Self {
        TreeOptions {
            lock_strategy: LockStrategy::Hocl,
            ..TreeOptions::plus_onchip()
        }
    }

    /// Full Sherman: "+2-Level Ver" on top of everything else.
    ///
    /// This preset is the paper's techniques — it selects nothing else, and
    /// offload stays `Never`.  What it runs over is this repository's index
    /// cache, which is budget-aware rather than the paper's two fixed shapes
    /// (see `sherman_cache::IndexCache`): it coincides with the paper's
    /// type-❶/❷ cache whenever level 1 fits `TreeConfig::cache_bytes`, and
    /// spends a smaller budget top-down along the path instead of on a sliver
    /// of level 1.  No option selects between the two; there is one cache.
    pub fn sherman() -> Self {
        TreeOptions {
            leaf_format: LeafFormat::UnsortedTwoLevel,
            ..TreeOptions::plus_hierarchical()
        }
    }

    /// The ablation ladder in presentation order, with the paper's labels.
    pub fn ablation_ladder() -> [(&'static str, TreeOptions); 5] {
        [
            ("FG+", TreeOptions::fg_plus()),
            ("+Combine", TreeOptions::plus_combine()),
            ("+On-Chip", TreeOptions::plus_onchip()),
            ("+Hierarchical", TreeOptions::plus_hierarchical()),
            ("+2-Level Ver", TreeOptions::sherman()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_test_configs_validate() {
        TreeConfig::default().validate().unwrap();
        TreeConfig::small_test().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            TreeConfig { node_size: 64, ..TreeConfig::default() },
            TreeConfig { key_size: 4, ..TreeConfig::default() },
            TreeConfig { leaf_fill: 0.0, ..TreeConfig::default() },
            TreeConfig { chunk_bytes: 512, ..TreeConfig::default() },
            // A huge key leaves no room for even 4 entries in a 1 KB node.
            TreeConfig { key_size: 512, ..TreeConfig::default() },
            // More internal slots than a 16-bit `start` can number.
            TreeConfig { node_size: 2 << 20, chunk_bytes: 2 << 20, ..TreeConfig::default() },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn ablation_ladder_matches_paper_order() {
        let ladder = TreeOptions::ablation_ladder();
        assert_eq!(ladder[0].0, "FG+");
        assert!(!ladder[0].1.combine_commands);
        assert!(ladder[1].1.combine_commands);
        assert_eq!(ladder[2].1.lock_strategy, LockStrategy::OnChip);
        assert_eq!(ladder[3].1.lock_strategy, LockStrategy::Hocl);
        assert_eq!(ladder[4].1.leaf_format, LeafFormat::UnsortedTwoLevel);
        // The last rung is full Sherman.
        assert_eq!(ladder[4].1, TreeOptions::sherman());
    }

    #[test]
    fn presets_toggle_exactly_the_documented_flags() {
        // FG+: no combining, host CAS locks released by a WRITE, sorted
        // leaves validated by the node-level version pair.
        assert_eq!(
            TreeOptions::fg_plus(),
            TreeOptions {
                combine_commands: false,
                lock_strategy: LockStrategy::HostCasWrite,
                leaf_format: LeafFormat::SortedNodeVersion,
                merge_threshold: TreeOptions::DEFAULT_MERGE_THRESHOLD,
                offload: OffloadPolicy::Never,
            }
        );
        // Each ladder rung flips exactly one technique relative to its
        // predecessor and leaves everything else untouched.
        assert_eq!(
            TreeOptions::plus_combine(),
            TreeOptions {
                combine_commands: true,
                ..TreeOptions::fg_plus()
            }
        );
        assert_eq!(
            TreeOptions::plus_onchip(),
            TreeOptions {
                lock_strategy: LockStrategy::OnChip,
                ..TreeOptions::plus_combine()
            }
        );
        assert_eq!(
            TreeOptions::plus_hierarchical(),
            TreeOptions {
                lock_strategy: LockStrategy::Hocl,
                ..TreeOptions::plus_onchip()
            }
        );
        assert_eq!(
            TreeOptions::sherman(),
            TreeOptions {
                leaf_format: LeafFormat::UnsortedTwoLevel,
                ..TreeOptions::plus_hierarchical()
            }
        );
    }

    #[test]
    fn leaf_format_sortedness() {
        assert!(LeafFormat::SortedNodeVersion.is_sorted());
        assert!(!LeafFormat::UnsortedTwoLevel.is_sorted());
    }

    #[test]
    fn offload_defaults_to_never_across_presets() {
        for (_, options) in TreeOptions::ablation_ladder() {
            assert_eq!(options.offload, OffloadPolicy::Never);
            assert!(!options.offload.may_offload());
        }
        let on = TreeOptions::sherman().with_offload(OffloadPolicy::Adaptive);
        assert_eq!(on.offload, OffloadPolicy::Adaptive);
        assert!(on.offload.may_offload());
        // Nothing else is touched.
        assert_eq!(on.leaf_format, TreeOptions::sherman().leaf_format);
        assert_eq!(on.merge_threshold, TreeOptions::sherman().merge_threshold);
    }

    #[test]
    fn structural_deletes_toggle() {
        let on = TreeOptions::sherman();
        assert!(on.structural_deletes_enabled());
        let off = on.without_structural_deletes();
        assert!(!off.structural_deletes_enabled());
        assert_eq!(off.merge_threshold, 0.0);
        // Everything else is untouched.
        assert_eq!(off.leaf_format, on.leaf_format);
        assert_eq!(off.lock_strategy, on.lock_strategy);
        assert_eq!(off.combine_commands, on.combine_commands);
    }
}
