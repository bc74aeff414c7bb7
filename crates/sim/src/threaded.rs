//! In-process multithreaded fabric backend on the real clock.
//!
//! [`ThreadedFabric`] is the second [`FabricBackend`]: client threads are
//! plain OS threads, timestamps come from a monotonic [`Instant`] epoch, and
//! every verb executes synchronously against the **same** memory-server state
//! the simulator uses, through the same verb code ([`MemServerSim`]); the two
//! backends differ only in time.  That sharing is deliberate:
//! `Region` is a slab of `AtomicU64` words (byte copies tear at word
//! granularity, atomic verbs are real hardware atomics) and the NIC atomic
//! buckets serialize under a `parking_lot` mutex, so the state is safe under
//! real concurrency without any backend-specific forking.
//!
//! What this backend trades away and what it buys:
//!
//! * **No queueing model.**  A verb's `completed_at` is simply the real
//!   instant its memory effect finished — there are no NIC ports, no PCIe
//!   charge, no wire time.  Latency numbers from this backend measure the
//!   *implementation*, not the modeled hardware; timing-sensitive assertions
//!   belong on the simulator.
//! * **No determinism.**  Thread interleavings are whatever the OS scheduler
//!   produces.  Two runs of a concurrent workload may split/merge different
//!   nodes at different times.
//! * **Real memory ordering and real contention.**  Races that virtual time
//!   serializes away (the conservative clock only ever runs one participant
//!   at an instant) execute for real here — this backend exists to surface
//!   exactly those bugs, and to turn the repro into a runnable concurrent
//!   service.
//!
//! Single-client workloads remain deterministic on both backends, because
//! verbs apply their memory effects at post time in program order — the
//! backend-equivalence suite pins that: same seeded workload, identical final
//! tree census on simulator and threaded backends.

use crate::addr::GlobalAddress;
use crate::channel::{FabricBackend, FabricChannel, FabricState, VerbWindow};
use crate::client::{CasResult, WriteCmd};
use crate::config::FabricConfig;
use crate::rpc::RpcWork;
use crate::server::{AtomicOp, AtomicUnit, MemServerSim};
use crate::{SimError, SimResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-process multithreaded fabric: shared memory servers on the real
/// clock, one [`ThreadedChannel`] per client thread.
#[derive(Debug)]
pub struct ThreadedFabric {
    state: FabricState,
    epoch: Instant,
}

impl ThreadedFabric {
    /// Build a threaded fabric from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FabricConfig::validate`], exactly
    /// like [`Fabric::new`](crate::fabric::Fabric::new).
    pub fn new(config: FabricConfig) -> Arc<Self> {
        Arc::new(ThreadedFabric {
            state: FabricState::new(config),
            epoch: Instant::now(),
        })
    }

    /// Nanoseconds since this fabric was built (monotonic real time).
    fn real_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl FabricBackend for ThreadedFabric {
    type Channel = ThreadedChannel;

    fn build(config: FabricConfig) -> Arc<Self> {
        ThreadedFabric::new(config)
    }

    fn channel(self: &Arc<Self>, cs: u16) -> ThreadedChannel {
        ThreadedChannel {
            fabric: Arc::clone(self),
            cs_id: cs,
        }
    }

    fn backend_name(&self) -> &'static str {
        "threaded"
    }

    fn now(&self) -> u64 {
        self.real_now()
    }

    fn state(&self) -> &FabricState {
        &self.state
    }
}

/// Per-client verb executor of the threaded backend.
///
/// Every verb's memory effect is [`MemServerSim`]'s, applied synchronously
/// on the calling OS thread; the channel only brackets it with real
/// timestamps.  It holds no state beyond its fabric handle, so creating one
/// per thread is free.
#[derive(Debug)]
pub struct ThreadedChannel {
    fabric: Arc<ThreadedFabric>,
    cs_id: u16,
}

impl ThreadedChannel {
    /// Wait until `t` nanoseconds on the fabric's clock: spin for short
    /// waits, sleep for long ones.  Sleeping slightly short of the target and
    /// spinning the rest keeps waits close to accurate without trusting the
    /// OS sleep granularity.
    fn wait_real(&self, t: u64) {
        const SPIN_THRESHOLD_NS: u64 = 100_000;
        loop {
            let now = self.fabric.real_now();
            if now >= t {
                return;
            }
            let remaining = t - now;
            if remaining > SPIN_THRESHOLD_NS {
                std::thread::sleep(Duration::from_nanos(remaining - SPIN_THRESHOLD_NS / 2));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Run a checked atomic now, returning the post instant.  It serializes
    /// through the same NIC atomic bucket the simulator uses — a real mutex,
    /// so contended atomics contend for real — with no modeled service time,
    /// and the bucket's end time is ignored.
    fn atomic_now(&self, execute: &mut AtomicUnit<'_>) -> u64 {
        let posted_at = self.now();
        execute(posted_at, 0);
        posted_at
    }

    /// The window of a verb whose checks passed at `posted_at` and whose
    /// effect has just finished.
    fn since(&self, posted_at: u64) -> VerbWindow {
        VerbWindow {
            posted_at,
            completed_at: self.fabric.real_now(),
        }
    }
}

impl FabricChannel for ThreadedChannel {
    type Backend = ThreadedFabric;

    fn backend(&self) -> &Arc<ThreadedFabric> {
        &self.fabric
    }

    fn cs_id(&self) -> u16 {
        self.cs_id
    }

    fn now(&self) -> u64 {
        self.fabric.real_now()
    }

    fn wait_until(&self, t: u64) {
        self.wait_real(t);
    }

    fn wait_until_earliest(&self, targets: &[u64]) -> Option<u64> {
        let earliest = targets.iter().copied().min()?;
        self.wait_real(earliest);
        Some(earliest)
    }

    fn advance(&self, ns: u64) {
        // CPU charges must make real time pass: polling loops (HOCL) rely on
        // advance() to back off between retries.
        let target = self.fabric.real_now() + ns;
        self.wait_real(target);
    }

    fn read(&mut self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<VerbWindow> {
        let server = self.fabric.server(addr.ms)?;
        let posted_at = server.read(addr, buf, || self.now())?;
        Ok(self.since(posted_at))
    }

    fn write_batch(&mut self, cmds: &[WriteCmd]) -> SimResult<VerbWindow> {
        let first = cmds.first().ok_or(SimError::EmptyBatch)?;
        let server = self.fabric.server(first.addr.ms)?;
        let posted_at = server.write_batch(cmds, || self.now())?;
        Ok(self.since(posted_at))
    }

    fn read_batch(
        &mut self,
        reqs: &[(GlobalAddress, usize)],
    ) -> SimResult<(VerbWindow, Vec<Vec<u8>>)> {
        let (posted, bufs) =
            MemServerSim::read_batch(self.fabric.servers(), reqs, |_, _| self.now())?;
        Ok((self.since(posted[0]), bufs))
    }

    fn atomic(&mut self, addr: GlobalAddress, op: AtomicOp) -> SimResult<(VerbWindow, CasResult)> {
        let server = self.fabric.server(addr.ms)?;
        let (posted_at, outcome) = server.atomic(addr, op, |execute| self.atomic_now(execute))?;
        Ok((self.since(posted_at), outcome))
    }

    fn cas_read(
        &mut self,
        lock: GlobalAddress,
        cas: AtomicOp,
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<(VerbWindow, CasResult)> {
        // Program order on this thread is the queue pair's in-order delivery:
        // the (SeqCst) CAS lands before the node bytes are read.
        let server = self.fabric.server(lock.ms)?;
        let (posted_at, outcome) =
            server.cas_read(lock, cas, addr, buf, |execute| self.atomic_now(execute))?;
        Ok((self.since(posted_at), outcome))
    }

    fn rpc(
        &mut self,
        ms: u16,
        _request_bytes: usize,
        _response_bytes: usize,
        _work: RpcWork,
    ) -> SimResult<VerbWindow> {
        // Validate the target exists; the request handling itself happens
        // synchronously in the caller on both backends, so by the time this
        // is called the interpreter's real execution time has already
        // elapsed — the window just brackets it with real timestamps.  The
        // modeled per-level/per-entry charge is a simulator concern.
        self.fabric.server(ms)?;
        Ok(self.since(self.now()))
    }

    fn coherence_send(&mut self, _wire_bytes: usize) -> VerbWindow {
        // Delivery is immediate on the real clock: the message becomes
        // drainable the moment it is deposited.
        let now = self.fabric.real_now();
        VerbWindow {
            posted_at: now,
            completed_at: now,
        }
    }

    fn wait_for_coherence(&self, _pending_horizon: Option<u64>) {
        // Messages deliver at deposit time here; if the quiesce loop is still
        // waiting, another thread is mid-deposit — give it the core.
        std::thread::yield_now();
    }

    fn contention_backoff(&self, attempt: u32) {
        // Yield first so the conflicting writer gets the core; escalate to
        // real (bounded) sleeps if the conflict persists, which covers the
        // single-core case where consecutive yields can keep landing back on
        // the spinning reader.
        if attempt <= 16 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(u64::from(attempt.min(64))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FabricBackend;
    use crate::client::WriteCmd;
    use crate::config::FabricConfig;

    fn test_fabric() -> Arc<ThreadedFabric> {
        ThreadedFabric::new(FabricConfig::small_test())
    }

    #[test]
    fn read_write_roundtrip_on_real_clock() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let addr = GlobalAddress::host(0, 1024);
        client.write(addr, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        client.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        let s = client.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.bytes_written, 64);
        assert_eq!(s.bytes_read, 64);
    }

    #[test]
    fn batch_shape_errors_match_the_simulator() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        assert!(matches!(
            client.post_writes(&[]).unwrap_err(),
            SimError::EmptyBatch
        ));
        assert_eq!(
            client
                .post_writes(&[
                    WriteCmd::new(GlobalAddress::host(0, 0), vec![0u8; 8]),
                    WriteCmd::new(GlobalAddress::host(1, 0), vec![0u8; 8]),
                ])
                .unwrap_err(),
            SimError::MixedBatch
        );
        let len = fabric.config().host_bytes_per_ms;
        let mut buf = [0u8; 16];
        assert!(matches!(
            client
                .read(GlobalAddress::host(0, len as u64 - 4), &mut buf)
                .unwrap_err(),
            SimError::OutOfBounds { .. }
        ));
        assert_eq!(
            client.read_u64(GlobalAddress::host(9, 0)).unwrap_err(),
            SimError::NoSuchServer { ms: 9 }
        );
    }

    #[test]
    fn masked_cas_and_faa_share_simulator_semantics() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let addr = GlobalAddress::on_chip(0, 64);
        let mask = 0xFFFFu64 << 16;
        assert!(client.masked_cas(addr, 0, 7 << 16, mask).unwrap().succeeded);
        assert!(!client.masked_cas(addr, 0, 9 << 16, mask).unwrap().succeeded);
        assert_eq!(fabric.god_read_u64(addr).unwrap(), 7 << 16);

        let ctr = GlobalAddress::host(0, 2048);
        assert_eq!(client.faa(ctr, 5).unwrap(), 0);
        assert_eq!(client.faa(ctr, 5).unwrap(), 5);
    }

    #[test]
    fn cas_read_shares_simulator_semantics() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let lock = GlobalAddress::on_chip(0, 64);
        let node = GlobalAddress::host(0, 8192);
        let mask = 0xFFFFu64 << 16;
        fabric.god_write(node, &[5u8; 128]).unwrap();
        let mut buf = [0u8; 128];
        let won = client
            .cas_read(lock, 0, 7 << 16, mask, node, &mut buf)
            .unwrap();
        assert!(won.succeeded);
        assert_eq!(buf, [5u8; 128]);
        // Losing the word still reads (and accounts) the node.
        fabric.god_write(node, &[6u8; 128]).unwrap();
        let lost = client
            .cas_read(lock, 0, 9 << 16, mask, node, &mut buf)
            .unwrap();
        assert_eq!((lost.succeeded, lost.previous), (false, 7 << 16));
        assert_eq!(buf, [6u8; 128]);
        assert_eq!(fabric.god_read_u64(lock).unwrap(), 7 << 16);
        let s = client.stats();
        assert_eq!((s.round_trips, s.atomics, s.reads, s.bytes_read), (2, 2, 2, 256));
        assert_eq!(
            client
                .cas_read(lock, 0, 1, mask, GlobalAddress::host(1, 0), &mut buf)
                .unwrap_err(),
            SimError::MixedBatch
        );
    }

    #[test]
    fn contended_atomics_from_real_threads_never_lose_updates() {
        let fabric = test_fabric();
        let addr = GlobalAddress::host(0, 4096);
        let threads: Vec<_> = (0..4u16)
            .map(|t| {
                let fabric = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let mut client = fabric.client(t % 2);
                    for _ in 0..500 {
                        client.faa(addr, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(fabric.god_read_u64(addr).unwrap(), 2000);
        assert_eq!(
            fabric
                .metrics()
                .snapshot()
                .atomics,
            2000
        );
    }

    #[test]
    fn coherence_messages_deliver_immediately_and_quiesce_terminates() {
        let fabric = test_fabric();
        let mut sender = fabric.client(0);
        let mut receiver = fabric.client(1);
        for i in 0..3u64 {
            sender.post_coherence(1, 16, Arc::new(i));
        }
        let msgs = receiver.quiesce_coherence();
        assert_eq!(msgs.len(), 3);
        // Deterministic (deliver_at, seq) order even on the real clock.
        assert!(msgs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(fabric.coherence().pending_len(1), 0);
        assert_eq!(
            fabric.coherence().posted_count(1),
            fabric.coherence().acked_count(1)
        );
    }

    #[test]
    fn clock_is_monotone_and_advance_passes_real_time() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        let t0 = client.now();
        client.charge_cpu(200_000);
        let t1 = client.now();
        assert!(t1 >= t0 + 200_000, "advance must pass real time");
    }

    #[test]
    fn split_phase_posts_complete_in_the_past() {
        let fabric = test_fabric();
        let mut client = fabric.client(0);
        fabric
            .god_write_u64(GlobalAddress::host(0, 512), 42)
            .unwrap();
        let token = client.post_read(GlobalAddress::host(0, 512), 8).unwrap();
        let c = client.poll_token(token);
        assert_eq!(
            u64::from_le_bytes(c.result.into_read().try_into().unwrap()),
            42
        );
        assert!(c.completed_at >= c.posted_at);
        assert!(client.now() >= c.completed_at);
    }
}
