//! The virtual-time simulator: the fabric ties together memory servers,
//! compute-server NIC ports, the virtual clock and global metrics, and its
//! [`SimChannel`] times every verb with the queueing model.

use crate::addr::{GlobalAddress, MemSpace};
use crate::channel::{FabricBackend, FabricChannel, FabricState, VerbWindow};
use crate::client::{CasResult, WriteCmd};
use crate::clock::{Participant, VirtualClock};
use crate::config::FabricConfig;
use crate::nic::NicPort;
use crate::rpc::RpcServed;
use crate::server::{AtomicOp, AtomicUnit, MemServerSim};
use crate::{SimError, SimResult};
use std::fmt;
use std::sync::Arc;

/// A simulated disaggregated-memory cluster.
#[derive(Debug)]
pub struct Fabric {
    state: FabricState,
    clock: Arc<VirtualClock>,
    cs_ports: Vec<NicPort>,
}

impl Fabric {
    /// Build a fabric from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FabricConfig::validate`].
    pub fn new(config: FabricConfig) -> Arc<Self> {
        let cs_ports = (0..config.compute_servers)
            .map(|_| NicPort::new())
            .collect();
        Arc::new(Fabric {
            state: FabricState::new(config),
            clock: Arc::new(VirtualClock::new()),
            cs_ports,
        })
    }
}

/// The virtual-time simulator is the first [`FabricBackend`]: the determinism
/// oracle every other backend is checked against.
impl FabricBackend for Fabric {
    type Channel = SimChannel;

    const VIRTUAL_CLOCK: bool = true;

    fn build(config: FabricConfig) -> Arc<Self> {
        Fabric::new(config)
    }

    fn channel(self: &Arc<Self>, cs: u16) -> SimChannel {
        SimChannel {
            participant: self.clock.register_for_thread(),
            fabric: Arc::clone(self),
            cs_id: cs,
        }
    }

    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    fn state(&self) -> &FabricState {
        &self.state
    }
}

/// The virtual-time simulator's [`FabricChannel`]: one clock participant plus
/// the queueing model (CS/MS NIC ports, PCIe vs on-chip atomics, wire time)
/// that fixes each verb's completion instant at post time.  The memory
/// effect is [`MemServerSim`]'s; this channel only times it.
pub struct SimChannel {
    fabric: Arc<Fabric>,
    cs_id: u16,
    participant: Arc<Participant>,
}

impl fmt::Debug for SimChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimChannel")
            .field("cs_id", &self.cs_id)
            .field("now", &self.participant.now())
            .finish()
    }
}

impl SimChannel {
    fn half_rtt(&self) -> u64 {
        self.fabric.config().base_rtt_ns / 2
    }

    /// Service time of `bytes` at a NIC port.
    fn nic(&self, bytes: usize) -> u64 {
        self.fabric.config().nic_service_ns(bytes)
    }

    /// When a verb posted now can start leaving the client.
    fn post_start(&self) -> u64 {
        self.participant.now() + self.fabric.config().cs_post_overhead_ns
    }

    /// This client's outbound NIC port.
    fn cs_port(&self) -> &NicPort {
        &self.fabric.cs_ports[self.cs_id as usize]
    }

    /// Issue one verb's worth of request-side timing and return the virtual
    /// time at which the request arrives at the MS NIC, after the CS port.
    fn request_path(&self, request_bytes: usize) -> u64 {
        self.cs_port()
            .serve(self.post_start(), self.nic(request_bytes))
            + self.half_rtt()
    }

    /// MS-side half of an atomic whose request reaches server `server`'s NIC
    /// at `arrival`: inbound port, then the address's atomic bucket (PCIe for
    /// host memory, on-chip otherwise).  Returns the instant it finished.
    fn atomic_at_server(
        &self,
        server: &MemServerSim,
        space: MemSpace,
        arrival: u64,
        execute: &mut AtomicUnit<'_>,
    ) -> u64 {
        let cfg = self.fabric.config();
        let exec_ns = match space {
            MemSpace::Host => cfg.host_atomic_pcie_ns,
            MemSpace::OnChip => cfg.onchip_atomic_ns,
        };
        execute(server.inbound.serve(arrival, self.nic(8)), exec_ns)
    }

    /// The window of a verb posted now whose MS-side service ended at
    /// `ms_done`: the response arrives half a round trip later.  (Posting
    /// never moves the clock, so "now" is still the post instant.)
    fn response(&self, ms_done: u64) -> VerbWindow {
        VerbWindow {
            posted_at: self.now(),
            completed_at: ms_done + self.half_rtt(),
        }
    }
}

impl FabricChannel for SimChannel {
    type Backend = Fabric;

    fn backend(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    fn cs_id(&self) -> u16 {
        self.cs_id
    }

    fn now(&self) -> u64 {
        self.participant.now()
    }

    fn wait_until(&self, t: u64) {
        self.participant.wait_until(t);
    }

    fn advance(&self, ns: u64) {
        self.participant.advance(ns);
    }

    fn read(&mut self, addr: GlobalAddress, buf: &mut [u8]) -> SimResult<VerbWindow> {
        let server = self.fabric.server(addr.ms)?;
        // The response payload serializes through the MS NIC port.
        let len = buf.len();
        let ms_done = server.read(addr, buf, || {
            server.inbound.serve(self.request_path(0), self.nic(len))
        })?;
        Ok(self.response(ms_done))
    }

    fn write_batch(&mut self, cmds: &[WriteCmd]) -> SimResult<VerbWindow> {
        let first = cmds.first().ok_or(SimError::EmptyBatch)?;
        let server = self.fabric.server(first.addr.ms)?;
        let ms_done = server.write_batch(cmds, || {
            // Request-side serialization of every command through the CS
            // port, then MS-side processing in post order.
            let mut cs_t = self.post_start();
            for cmd in cmds {
                cs_t = self.cs_port().serve(cs_t, self.nic(cmd.data.len()));
            }
            let mut ms_t = cs_t + self.half_rtt();
            for cmd in cmds {
                ms_t = server.inbound.serve(ms_t, self.nic(cmd.data.len()));
            }
            ms_t
        })?;
        Ok(self.response(ms_done))
    }

    fn read_batch(
        &mut self,
        reqs: &[(GlobalAddress, usize)],
    ) -> SimResult<(VerbWindow, Vec<Vec<u8>>)> {
        let mut cs_t = self.post_start();
        let (ms_done, bufs) =
            MemServerSim::read_batch(self.fabric.servers(), reqs, |server, len| {
                cs_t = self.cs_port().serve(cs_t, self.nic(0));
                server.inbound.serve(cs_t + self.half_rtt(), self.nic(len))
            })?;
        // The window closes when the latest response arrives.
        let latest = ms_done
            .into_iter()
            .max()
            .expect("a read batch is never empty");
        Ok((self.response(latest), bufs))
    }

    fn atomic(&mut self, addr: GlobalAddress, op: AtomicOp) -> SimResult<(VerbWindow, CasResult)> {
        let server = self.fabric.server(addr.ms)?;
        let (exec_end, outcome) = server.atomic(addr, op, |execute| {
            self.atomic_at_server(server, addr.space, self.request_path(8), execute)
        })?;
        Ok((self.response(exec_end), outcome))
    }

    fn cas_read(
        &mut self,
        lock: GlobalAddress,
        cas: AtomicOp,
        addr: GlobalAddress,
        buf: &mut [u8],
    ) -> SimResult<(VerbWindow, CasResult)> {
        let server = self.fabric.server(lock.ms)?;
        let len = buf.len();
        let (read_done, outcome) = server.cas_read(lock, cas, addr, buf, |execute| {
            // Both requests serialize through the CS port, the CAS first.
            let cas_sent = self.cs_port().serve(self.post_start(), self.nic(8));
            let read_sent = self.cs_port().serve(cas_sent, self.nic(0));
            let cas_done =
                self.atomic_at_server(server, lock.space, cas_sent + self.half_rtt(), execute);
            // In-order delivery on the queue pair: the READ executes after
            // the CAS, so its response leaves no earlier than the CAS finished.
            let read_arrival = (read_sent + self.half_rtt()).max(cas_done);
            server.inbound.serve(read_arrival, self.nic(len))
        })?;
        Ok((self.response(read_done), outcome))
    }

    fn rpc<R>(
        &mut self,
        ms: u16,
        request_bytes: usize,
        serve: impl FnOnce() -> (R, RpcServed),
    ) -> SimResult<(VerbWindow, R)> {
        let server = self.fabric.server(ms)?;
        // The server-side work takes no virtual time of its own: what it
        // costs is the service charge it reports.
        let (reply, served) = serve();
        let arrival = self.request_path(request_bytes);
        // The wimpy core's service time scales with the work reported:
        // base dispatch + per-level + per-entry.
        let service = self.nic(request_bytes.max(served.response_bytes))
            + self.fabric.config().rpc_cost_ns(served.work);
        let window = self.response(server.inbound.serve(arrival, service));
        Ok((window, reply))
    }

    fn coherence_send(&mut self, wire_bytes: usize) -> VerbWindow {
        VerbWindow {
            posted_at: self.now(),
            completed_at: self.request_path(wire_bytes),
        }
    }

    fn wait_for_coherence(&self, pending_horizon: Option<u64>) {
        // Deterministic: wait exactly to the latest known delivery instant,
        // which is the pre-trait quiesce behaviour.  Delivery is fixed at
        // post time, so one wait always suffices on this backend.
        if let Some(horizon) = pending_horizon {
            if horizon > self.participant.now() {
                self.participant.wait_until(horizon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MemSpace;

    #[test]
    fn fabric_construction_and_god_access() {
        let fabric = Fabric::new(FabricConfig::small_test());
        assert_eq!(fabric.memory_servers(), 2);
        assert_eq!(fabric.compute_servers(), 2);
        assert_eq!(fabric.now(), 0);

        let addr = GlobalAddress::host(1, 4096);
        fabric.god_write(addr, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        fabric.god_read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        // God access does not advance the clock or touch metrics.
        assert_eq!(fabric.now(), 0);
        assert_eq!(fabric.metrics().snapshot().total_verbs(), 0);
    }

    #[test]
    fn unknown_server_is_an_error() {
        let fabric = Fabric::new(FabricConfig::small_test());
        let addr = GlobalAddress::host(9, 0);
        assert_eq!(
            fabric.god_write(addr, &[0u8; 8]).unwrap_err(),
            SimError::NoSuchServer { ms: 9 }
        );
    }

    /// A client of compute server 5 on a two-server fabric would share
    /// server 1's NIC port, inbox, cache and local locks while tagging its
    /// lock words as server 5's: it is refused where it is made.
    #[test]
    #[should_panic(expected = "compute server 5 out of range")]
    fn a_client_of_an_unknown_compute_server_is_refused() {
        let fabric = Fabric::new(FabricConfig::small_test());
        let _ = fabric.client(5);
    }

    #[test]
    fn god_word_access_round_trips() {
        let fabric = Fabric::new(FabricConfig::small_test());
        let addr = GlobalAddress::on_chip(0, 128);
        fabric.god_write_u64(addr, 0xDEADBEEF).unwrap();
        assert_eq!(fabric.god_read_u64(addr).unwrap(), 0xDEADBEEF);
        assert_eq!(
            fabric
                .server(0)
                .unwrap()
                .region(MemSpace::OnChip)
                .read_u64(128)
                .unwrap(),
            0xDEADBEEF
        );
    }

    #[test]
    #[should_panic(expected = "invalid fabric configuration")]
    fn invalid_config_panics() {
        let mut cfg = FabricConfig::small_test();
        cfg.memory_servers = 0;
        let _ = Fabric::new(cfg);
    }
}
