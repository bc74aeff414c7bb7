//! The context the tree operations run against.
//!
//! Every operation is an `async fn` over one shared [`OpCx`]: it posts a verb
//! and awaits its completion (`cx.wait(token).await`) on the simulator's
//! executor (`sherman_sim::exec`), whose [`Parking`] the context wraps and
//! dereferences to.  A verb or a lock step yields the client: its other
//! operations may run meanwhile.  CPU time ([`OpCx::scan_cpu`]) and the few
//! waits that block inside an operation (`Parking::hold`) hold it: only
//! *other* clients run.  A client driven alone — `Parking::block_on`, or any
//! run of one client — answers a hold in place.
//!
//! The pipelined scheduler (`crate::scheduler`) is the client's future on
//! that executor: it keeps several operations of a client parked at once and
//! resumes whichever one's parked completion is due first.

use crate::cluster::Cluster;
use sherman_memserver::ClientAllocator;
use sherman_sim::{Fabric, FabricBackend, Parking};
use std::ops::Deref;
use std::sync::Arc;

/// The shared-state window every operation runs against: the cluster plus
/// this client's node allocator and its [`Parking`], the fabric context its
/// operations wait through (and dereference to).  All operations multiplexed
/// on one client share the *same* `OpCx` (that is the point); the allocator
/// keeps its state in cells of its own.  The lock manager's acquisitions and
/// releases and the allocator's chunk requests, written once as `async fn`s
/// over `sherman_sim::Waits`, park the operation on `parking` — a lock step
/// as `Park::Lock`, a release verb or a chunk request as a hold.
pub(crate) struct OpCx<'a, B: FabricBackend = Fabric> {
    pub cluster: &'a Arc<Cluster<B>>,
    pub allocator: &'a ClientAllocator<B>,
    pub cs_id: u16,
    pub parking: Parking<'a, B::Channel>,
}

impl<B: FabricBackend> OpCx<'_, B> {
    /// Spend the CPU time of scanning `bytes` of fetched data, holding the
    /// client.
    pub(crate) async fn scan_cpu(&self, bytes: usize) {
        let ns = self.cluster.fabric().config().cpu_scan_ns(bytes);
        self.parking.cpu(ns).await;
    }
}

impl<'a, B: FabricBackend> Deref for OpCx<'a, B> {
    type Target = Parking<'a, B::Channel>;

    fn deref(&self) -> &Self::Target {
        &self.parking
    }
}
