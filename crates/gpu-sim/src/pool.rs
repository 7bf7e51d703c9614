//! A pool of simulated devices connected by a modelled interconnect.
//!
//! The multi-device executor in `sketch-dist` shards work across the pool's
//! [`Device`]s and uses [`InterconnectSpec`] to price the transfers that stitch the
//! shards back together.  Each device keeps its own cost tracker and memory model, so
//! per-device utilization and per-device OOM behaviour fall out of the same idioms
//! the single-device code already uses.
//!
//! ```
//! use sketch_gpu_sim::{DevicePool, KernelCost};
//!
//! let pool = DevicePool::h100(4);
//! pool.device(2).record(KernelCost::new(1 << 20, 1 << 20, 1 << 10, 1));
//! assert_eq!(pool.num_devices(), 4);
//! assert_eq!(pool.total_cost().launches, 1);
//! // An NVLink hop for 1 MiB:
//! assert!(pool.interconnect().transfer_time(1 << 20) > 0.0);
//! ```

use crate::counters::KernelCost;
use crate::device::{Device, DeviceSpec};
use std::sync::Arc;

/// Published characteristics of the device-to-device interconnect.
///
/// The executor models ring collectives, so the numbers describe one link of the
/// ring; the defaults follow NVIDIA's NVLink 4 datasheet figures de-rated the same
/// way [`DeviceSpec`] de-rates HBM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    /// Human readable name used in reports.
    pub name: &'static str,
    /// Sustained point-to-point bandwidth of one link, in bytes per second.
    pub link_bandwidth_bytes_per_s: f64,
    /// Fixed per-transfer latency in seconds (ring hop setup, NCCL launch, …).
    pub latency_s: f64,
}

impl InterconnectSpec {
    /// NVLink 4 (H100 generation): 900 GB/s aggregate per GPU; a single ring
    /// direction sustains roughly half, de-rated to 80 %.
    pub const fn nvlink4() -> Self {
        Self {
            name: "NVLink 4 (modelled)",
            link_bandwidth_bytes_per_s: 360.0e9,
            latency_s: 5.0e-6,
        }
    }

    /// PCIe 5.0 x16: the fallback fabric when GPUs are not NVLink-connected.
    pub const fn pcie5() -> Self {
        Self {
            name: "PCIe 5.0 x16 (modelled)",
            link_bandwidth_bytes_per_s: 50.0e9,
            latency_s: 1.0e-5,
        }
    }

    /// The degenerate interconnect of a single-device pool: no transfer ever
    /// crosses a link, so every hop is free.  This is what makes a
    /// [`DevicePool::single`] a zero-overhead execution target — the executor's
    /// collectives degenerate to no-ops and the timeline reduces to bare device
    /// launches.
    pub const fn local() -> Self {
        Self {
            name: "local (single device)",
            link_bandwidth_bytes_per_s: f64::INFINITY,
            latency_s: 0.0,
        }
    }

    /// Time for one link to move `bytes`, in seconds.
    ///
    /// A zero-byte transfer is free — `0.0`, *not* `latency_s` — by design:
    /// the executor elides empty collectives entirely (no NCCL launch is
    /// issued for a payload that does not exist), so there is no hop to pay
    /// latency on.  This elision is also what keeps single-device pools and
    /// comm-free stages exactly zero-overhead ([`InterconnectSpec::local`]'s
    /// contract).  Pinned for both real presets by
    /// `zero_byte_transfers_are_elided_on_every_preset`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / self.link_bandwidth_bytes_per_s
    }
}

impl Default for InterconnectSpec {
    fn default() -> Self {
        Self::nvlink4()
    }
}

/// Why [`DevicePool::subpool`] refused to build a view.
///
/// Rejections are typed errors, not panics: a service layer turns these into
/// per-request failures instead of tearing the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The requested subset named no devices.
    Empty,
    /// An ordinal is not a position in the parent pool.
    OutOfRange {
        /// The offending ordinal.
        ordinal: usize,
        /// Number of devices in the parent pool.
        num_devices: usize,
    },
    /// The same ordinal appeared more than once in the subset.
    Duplicate {
        /// The repeated ordinal.
        ordinal: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Empty => write!(f, "subpool needs at least one device ordinal"),
            PoolError::OutOfRange {
                ordinal,
                num_devices,
            } => write!(
                f,
                "device ordinal {ordinal} is out of range for a pool of {num_devices}"
            ),
            PoolError::Duplicate { ordinal } => {
                write!(f, "device ordinal {ordinal} appears more than once")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A fixed set of simulated devices plus the interconnect between them.
///
/// Devices are reference-counted so a [`DevicePool::subpool`] view shares the
/// parent's devices: kernel costs and memory pressure recorded through a
/// subpool accumulate on the parent's trackers, exactly as concurrent jobs on
/// a shared cluster would.
#[derive(Debug, Default, Clone)]
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
    interconnect: InterconnectSpec,
}

impl DevicePool {
    /// A pool of `n` identical devices built from one spec, NVLink-connected.
    ///
    /// # Panics
    /// Panics if `n` is zero — an executor needs at least one device.
    pub fn homogeneous(n: usize, spec: DeviceSpec) -> Self {
        assert!(n > 0, "a device pool needs at least one device");
        Self {
            devices: (0..n)
                .map(|i| Arc::new(Device::with_ordinal(spec, i)))
                .collect(),
            interconnect: InterconnectSpec::default(),
        }
    }

    /// `n` modelled H100s (the paper's device).
    pub fn h100(n: usize) -> Self {
        Self::homogeneous(n, DeviceSpec::h100())
    }

    /// A first-class single-device pool with the degenerate
    /// [`InterconnectSpec::local`] interconnect.
    ///
    /// This is how "serial" execution is expressed in the unified engine: every
    /// driver takes a pool, and a pool of one runs the exact single-device kernels
    /// with zero communication — the executor's timeline produces the same makespan
    /// as bare [`Device`] launches.
    pub fn single(spec: DeviceSpec) -> Self {
        Self {
            devices: vec![Arc::new(Device::new(spec))],
            interconnect: InterconnectSpec::local(),
        }
    }

    /// `n` devices that never report out-of-memory; convenient in tests.
    pub fn unlimited(n: usize) -> Self {
        Self::homogeneous(n, DeviceSpec::unlimited())
    }

    /// Replace the interconnect model.
    #[must_use]
    pub fn with_interconnect(mut self, interconnect: InterconnectSpec) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Number of devices in the pool.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device `i` (pool position).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// All devices, in pool order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// A view over the devices at the given pool positions, sharing the parent
    /// pool's devices and interconnect.
    ///
    /// The returned pool is a first-class execution target: the executor
    /// shards across its positions as usual, while every launch lands on the
    /// parent's cost trackers and memory models.  A service scheduler uses
    /// disjoint subpools to co-schedule independent jobs on one cluster.
    ///
    /// Devices keep their parent ordinals, so trace and utilization reports
    /// from a subpool run still name the physical devices.
    ///
    /// Rejects empty subsets, out-of-range ordinals and duplicates with a
    /// typed [`PoolError`] instead of panicking.
    pub fn subpool(&self, ordinals: &[usize]) -> Result<DevicePool, PoolError> {
        if ordinals.is_empty() {
            return Err(PoolError::Empty);
        }
        let mut seen = vec![false; self.devices.len()];
        let mut devices = Vec::with_capacity(ordinals.len());
        for &ordinal in ordinals {
            if ordinal >= self.devices.len() {
                return Err(PoolError::OutOfRange {
                    ordinal,
                    num_devices: self.devices.len(),
                });
            }
            if seen[ordinal] {
                return Err(PoolError::Duplicate { ordinal });
            }
            seen[ordinal] = true;
            devices.push(Arc::clone(&self.devices[ordinal]));
        }
        let interconnect = if devices.len() == 1 {
            InterconnectSpec::local()
        } else {
            self.interconnect
        };
        Ok(DevicePool {
            devices,
            interconnect,
        })
    }

    /// The interconnect model.
    pub fn interconnect(&self) -> &InterconnectSpec {
        &self.interconnect
    }

    /// Sum of every device's accumulated cost counters.
    pub fn total_cost(&self) -> KernelCost {
        self.devices
            .iter()
            .fold(KernelCost::zero(), |acc, d| acc + d.tracker().snapshot())
    }

    /// Reset every device's cost counters.
    pub fn reset_counters(&self) {
        for d in &self.devices {
            d.tracker().reset();
        }
    }

    /// Attach one recorder to every device in the pool; the executor also
    /// picks it up from here for its stream-timeline events.  Pass a
    /// [`sketch_obs::TraceCollector`] to capture a trace of everything the
    /// pool runs.
    pub fn attach_recorder(&self, recorder: std::sync::Arc<dyn sketch_obs::Recorder>) {
        for d in &self.devices {
            d.set_recorder(Some(recorder.clone()));
        }
    }

    /// Detach any recorder from every device.
    pub fn detach_recorder(&self) {
        for d in &self.devices {
            d.set_recorder(None);
        }
    }

    /// The recorder attached to the pool's devices, if any is enabled.
    pub fn recorder(&self) -> Option<std::sync::Arc<dyn sketch_obs::Recorder>> {
        self.devices.first().and_then(|d| d.recorder())
    }

    /// Inject `plan`'s faults into the pool's devices, keyed by pool position.
    ///
    /// The plan is total: positions it does not name get any previous fault
    /// *cleared* (and their sticky failed flags reset), so re-applying a plan
    /// restarts a fresh run's fault clocks.  Plan entries beyond the pool are
    /// ignored.  Because subpool views share the parent's devices, faults
    /// applied here are observed by every view — a flaky GPU is flaky for
    /// every job scheduled onto it.
    pub fn apply_fault_plan(&self, plan: &crate::FaultPlan) {
        for (i, d) in self.devices.iter().enumerate() {
            d.set_fault(plan.get(i));
        }
    }

    /// Clear every injected fault (and sticky failed flag) in the pool.
    pub fn clear_faults(&self) {
        for d in &self.devices {
            d.set_fault(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_pool_has_independent_trackers() {
        let pool = DevicePool::h100(3);
        pool.device(0).record(KernelCost::new(8, 8, 2, 1));
        pool.device(2).record(KernelCost::new(16, 0, 4, 1));
        assert_eq!(pool.device(0).tracker().snapshot().flops, 2);
        assert_eq!(pool.device(1).tracker().snapshot().flops, 0);
        assert_eq!(pool.total_cost().flops, 6);
        pool.reset_counters();
        assert_eq!(pool.total_cost(), KernelCost::zero());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_is_rejected() {
        DevicePool::h100(0);
    }

    #[test]
    fn interconnect_presets_are_ordered_sensibly() {
        let nvlink = InterconnectSpec::nvlink4();
        let pcie = InterconnectSpec::pcie5();
        assert!(nvlink.link_bandwidth_bytes_per_s > pcie.link_bandwidth_bytes_per_s);
        let bytes = 1u64 << 24;
        assert!(nvlink.transfer_time(bytes) < pcie.transfer_time(bytes));
        assert_eq!(nvlink.transfer_time(0), 0.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let ic = InterconnectSpec::nvlink4();
        let t = ic.transfer_time(1);
        assert!(t >= ic.latency_s);
    }

    #[test]
    fn zero_byte_transfers_are_elided_on_every_preset() {
        // Decision (ISSUE 9 satellite): an empty payload launches no
        // collective, so it pays no latency — 0.0 exactly, on every fabric.
        for ic in [InterconnectSpec::nvlink4(), InterconnectSpec::pcie5()] {
            assert_eq!(ic.transfer_time(0), 0.0, "{}", ic.name);
            // The first real byte does pay the hop setup.
            assert!(ic.transfer_time(1) >= ic.latency_s, "{}", ic.name);
        }
    }

    #[test]
    fn fault_plans_apply_by_pool_position_and_clear() {
        use crate::fault::{FaultPlan, FaultSpec};
        let pool = DevicePool::unlimited(3);
        let plan = FaultPlan::healthy()
            .with_fault(
                1,
                FaultSpec::Dies {
                    after_sim_seconds: 0.5,
                },
            )
            .with_fault(
                2,
                FaultSpec::Straggler {
                    slowdown_factor: 3.0,
                },
            )
            // Beyond the pool: ignored.
            .with_fault(9, FaultSpec::LinkDegraded { factor: 2.0 });
        pool.apply_fault_plan(&plan);
        assert_eq!(pool.device(0).fault(), None);
        assert_eq!(pool.device(1).death_time(), Some(0.5));
        assert_eq!(pool.device(2).time_scale(), 3.0);
        // Subpool views observe the parent's faults.
        let sub = pool.subpool(&[1, 2]).unwrap();
        assert_eq!(sub.device(0).death_time(), Some(0.5));
        // Marking a death through the view is visible on the parent handle.
        assert!(sub.device(0).check_alive(1.0).is_err());
        assert!(pool.device(1).is_failed());
        // An empty plan (or clear_faults) heals everything.
        pool.apply_fault_plan(&FaultPlan::healthy());
        assert_eq!(pool.device(1).fault(), None);
        assert!(!pool.device(1).is_failed());
        pool.apply_fault_plan(&plan);
        pool.clear_faults();
        assert_eq!(pool.device(2).time_scale(), 1.0);
    }

    #[test]
    fn single_device_pool_has_a_free_interconnect() {
        let pool = DevicePool::single(DeviceSpec::h100());
        assert_eq!(pool.num_devices(), 1);
        assert_eq!(pool.interconnect().transfer_time(1 << 30), 0.0);
        assert_eq!(pool.interconnect().name, "local (single device)");
        assert_eq!(pool.device(0).spec().name, DeviceSpec::h100().name);
    }

    #[test]
    fn pool_ordinals_follow_pool_positions() {
        let pool = DevicePool::h100(3);
        for (i, d) in pool.devices().iter().enumerate() {
            assert_eq!(d.ordinal(), i);
        }
    }

    #[test]
    fn recorder_attaches_to_every_device_and_detaches() {
        let pool = DevicePool::h100(2);
        assert!(pool.recorder().is_none());
        let collector = sketch_obs::TraceCollector::shared();
        pool.attach_recorder(collector.clone());
        assert!(pool.recorder().is_some());
        pool.device(1).launch("k", KernelCost::new(8, 8, 2, 1));
        assert_eq!(collector.len(), 1);
        assert_eq!(collector.snapshot()[0].device, 1);
        pool.detach_recorder();
        assert!(pool.recorder().is_none());
    }

    #[test]
    fn subpool_shares_devices_and_keeps_ordinals() {
        let pool = DevicePool::unlimited(4);
        let sub = pool.subpool(&[1, 3]).unwrap();
        assert_eq!(sub.num_devices(), 2);
        assert_eq!(sub.device(0).ordinal(), 1);
        assert_eq!(sub.device(1).ordinal(), 3);
        // Costs recorded through the view land on the parent's trackers.
        sub.device(0).record(KernelCost::new(8, 8, 2, 1));
        assert_eq!(pool.device(1).tracker().snapshot().flops, 2);
        assert_eq!(pool.total_cost().flops, 2);
        // Multi-device subpools inherit the parent fabric.
        assert_eq!(sub.interconnect().name, pool.interconnect().name);
    }

    #[test]
    fn single_device_subpool_gets_the_local_interconnect() {
        let pool = DevicePool::h100(4);
        let sub = pool.subpool(&[2]).unwrap();
        assert_eq!(sub.num_devices(), 1);
        assert_eq!(sub.device(0).ordinal(), 2);
        // A one-device view is a zero-comm execution target, exactly like
        // `DevicePool::single`.
        assert_eq!(sub.interconnect().transfer_time(1 << 30), 0.0);
    }

    #[test]
    fn subpool_rejects_bad_subsets_with_typed_errors() {
        let pool = DevicePool::unlimited(3);
        assert_eq!(pool.subpool(&[]).unwrap_err(), PoolError::Empty);
        assert_eq!(
            pool.subpool(&[0, 3]).unwrap_err(),
            PoolError::OutOfRange {
                ordinal: 3,
                num_devices: 3
            }
        );
        assert_eq!(
            pool.subpool(&[1, 2, 1]).unwrap_err(),
            PoolError::Duplicate { ordinal: 1 }
        );
        // Errors render as readable messages.
        assert!(PoolError::Empty.to_string().contains("at least one"));
        assert!(pool
            .subpool(&[9])
            .unwrap_err()
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn overlapping_subpools_accumulate_onto_the_same_device() {
        let pool = DevicePool::unlimited(2);
        let a = pool.subpool(&[0]).unwrap();
        let b = pool.subpool(&[0, 1]).unwrap();
        a.device(0).record(KernelCost::new(0, 0, 1, 1));
        b.device(0).record(KernelCost::new(0, 0, 10, 1));
        assert_eq!(pool.device(0).tracker().snapshot().flops, 11);
        assert_eq!(pool.device(1).tracker().snapshot().flops, 0);
    }

    #[test]
    fn pool_interconnect_is_swappable() {
        let pool = DevicePool::unlimited(2).with_interconnect(InterconnectSpec::pcie5());
        assert_eq!(pool.interconnect().name, "PCIe 5.0 x16 (modelled)");
        assert_eq!(pool.devices().len(), 2);
    }
}
