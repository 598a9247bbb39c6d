//! Node-service proxy: heavyweight OS services stay on the node.
//!
//! "The CAB kernel provides support for simple, time-critical
//! operations such as memory management and timers, but it relies on
//! the node operating system for more complicated operations such as
//! file I/O. The CAB invokes these services by interrupting the node
//! over the VME bus" (§6.1).
//!
//! [`ServiceProxy`] models that path: each request costs a VME
//! interrupt, a node-side dispatch, the service itself (disk transfer,
//! console output, a clock read), and the VME transfer of any payload.
//! The node services requests serially — the CAB-side caller blocks
//! (its thread waits), which is exactly why only non-critical
//! operations take this path.

use core::fmt;
use nectar_sim::time::{Dur, Time};
use nectar_sim::units::Bandwidth;

/// A service request to the node operating system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeService {
    /// Read `bytes` from a file on the node's disk.
    FileRead {
        /// Bytes to read.
        bytes: usize,
    },
    /// Write `bytes` to a file on the node's disk.
    FileWrite {
        /// Bytes to write.
        bytes: usize,
    },
    /// Read the node's time-of-day clock.
    GetTimeOfDay,
    /// Write `bytes` to the node console (diagnostics).
    ConsoleWrite {
        /// Bytes to print.
        bytes: usize,
    },
}

impl fmt::Display for NodeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeService::FileRead { bytes } => write!(f, "file read {bytes} B"),
            NodeService::FileWrite { bytes } => write!(f, "file write {bytes} B"),
            NodeService::GetTimeOfDay => f.write_str("gettimeofday"),
            NodeService::ConsoleWrite { bytes } => write!(f, "console {bytes} B"),
        }
    }
}

/// Cost constants of the node-service path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceCosts {
    /// Raising the VME interrupt and the node taking it.
    pub vme_interrupt: Dur,
    /// Node-side dispatch (wake the service daemon, decode the request).
    pub dispatch: Dur,
    /// Disk access latency (1989 SCSI: ~20 ms seek+rotate).
    pub disk_latency: Dur,
    /// Disk streaming bandwidth (~1 MB/s).
    pub disk_bw: Bandwidth,
    /// VME transfer bandwidth for request/response payloads.
    pub vme_bw: Bandwidth,
    /// Console output rate (terminal-bound).
    pub console_bw: Bandwidth,
}

impl ServiceCosts {
    /// A 1989 Sun-class node.
    pub fn sun_1989() -> ServiceCosts {
        ServiceCosts {
            vme_interrupt: Dur::from_micros(50),
            dispatch: Dur::from_micros(150),
            disk_latency: Dur::from_millis(20),
            disk_bw: Bandwidth::from_mbyte_per_sec(1),
            vme_bw: Bandwidth::from_mbyte_per_sec(10),
            console_bw: Bandwidth::from_bits_per_sec(9_600),
        }
    }

    /// Node-side time to perform `service` once dispatched.
    fn service_time(&self, service: NodeService) -> Dur {
        match service {
            NodeService::FileRead { bytes } | NodeService::FileWrite { bytes } => {
                self.disk_latency
                    + self.disk_bw.transfer_time(bytes)
                    + self.vme_bw.transfer_time(bytes)
            }
            NodeService::GetTimeOfDay => Dur::from_micros(5),
            NodeService::ConsoleWrite { bytes } => self.console_bw.transfer_time(bytes),
        }
    }
}

impl Default for ServiceCosts {
    fn default() -> ServiceCosts {
        ServiceCosts::sun_1989()
    }
}

/// The CAB's window onto node services. The node handles one request
/// at a time; concurrent requests queue.
///
/// # Examples
///
/// ```
/// use nectar_kernel::services::{NodeService, ServiceProxy};
/// use nectar_sim::time::Time;
///
/// let mut proxy = ServiceProxy::new(Default::default());
/// let done = proxy.request(Time::ZERO, NodeService::GetTimeOfDay);
/// // Interrupt + dispatch + a trivial service: fraction of a millisecond.
/// assert!(done.as_micros_f64() < 1_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceProxy {
    costs: ServiceCosts,
    node_busy_until: Time,
}

impl ServiceProxy {
    /// A proxy with an idle node.
    pub fn new(costs: ServiceCosts) -> ServiceProxy {
        ServiceProxy { costs, node_busy_until: Time::ZERO }
    }

    /// Issues `service` at `now`; returns when the result is back in
    /// CAB memory. The calling CAB thread blocks until then — which is
    /// why the paper keeps this path off the fast path.
    pub fn request(&mut self, now: Time, service: NodeService) -> Time {
        let at_node = now + self.costs.vme_interrupt;
        let start = at_node.max(self.node_busy_until) + self.costs.dispatch;
        let done = start + self.costs.service_time(service);
        self.node_busy_until = done;
        done + self.costs.vme_interrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_io_is_disk_dominated() {
        let mut p = ServiceProxy::new(ServiceCosts::sun_1989());
        let done = p.request(Time::ZERO, NodeService::FileRead { bytes: 8192 });
        // ~20 ms of disk latency dwarfs everything else.
        let ms = done.as_micros_f64() / 1e3;
        assert!((20.0..40.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn cheap_services_are_cheap() {
        let mut p = ServiceProxy::new(ServiceCosts::sun_1989());
        let t = p.request(Time::ZERO, NodeService::GetTimeOfDay);
        assert!(t.as_micros_f64() < 500.0);
    }

    #[test]
    fn node_serializes_requests() {
        let mut p = ServiceProxy::new(ServiceCosts::sun_1989());
        let first = p.request(Time::ZERO, NodeService::FileRead { bytes: 1024 });
        let second = p.request(Time::ZERO, NodeService::FileRead { bytes: 1024 });
        assert!(second > first, "the node's service loop is sequential");
    }

    #[test]
    fn console_is_terminal_bound() {
        let mut p = ServiceProxy::new(ServiceCosts::sun_1989());
        // 960 bytes at 9600 baud = 800 ms.
        let t = p.request(Time::ZERO, NodeService::ConsoleWrite { bytes: 960 });
        assert!(t.as_secs_f64() > 0.7, "{t}");
    }

    #[test]
    fn service_path_vs_fast_path_contrast() {
        // The whole point of §6.1: even the *cheapest* node service
        // costs several times the CAB's thread switch — the kernel is
        // right to keep time-critical work local.
        let mut p = ServiceProxy::new(ServiceCosts::sun_1989());
        let svc = p.request(Time::ZERO, NodeService::GetTimeOfDay);
        let switch = nectar_cab::timings::CabTimings::prototype().thread_switch;
        assert!(svc.saturating_since(Time::ZERO) > switch * 10);
    }
}
