//! QUDA-like staggered Dslash baseline (`staggered_dslash_test`).
//!
//! The paper uses QUDA's `staggered_dslash_test` as its reference point:
//! 633.7 GFLOP/s without gauge compression (recon 18), 728 with
//! recon 12 and 825 with recon 9 on the A100 (Section IV-D3).  This
//! crate rebuilds that baseline on the `gpu-sim` device model:
//!
//! * [`recon`] — the gauge-compression schemes and their exact
//!   reconstruction math;
//! * [`kernel`] — the thread-per-site, `double2`-vectorized kernel;
//! * [`mod@autotune`] — QUDA's block-size autotuner;
//! * [`StaggeredDslashTest`] — the end-to-end harness: pack, tune, run,
//!   validate against the `milc-dslash` CPU reference, report GFLOP/s.

pub mod autotune;
pub mod kernel;
/// Gauge reconstruction — re-exported from `milc_lattice::recon`, where
/// the math lives so the SYCL-side compressed kernels (the paper's
/// future-work extension) can share it.
pub use milc_lattice::recon;

pub use autotune::{autotune, default_candidates, padded_range, TuneFailure, TuneResult};
pub use kernel::{QudaDslashKernel, QudaTables};
pub use recon::Recon;

use gpu_sim::{
    DeviceMemory, DeviceSpec, DeviceState, LaunchReport, Launcher, Queue, QueueMode, SimError,
};
use milc_complex::DoubleComplex;
use milc_dslash::validate::{compare_to_reference, MaxError};
use milc_dslash::{reference, theoretical_flops};
use milc_lattice::{ColorVector, GaugeField, Lattice, LinkType, NeighborTable, Parity, QuarkField};

/// One full `staggered_dslash_test` run: its own device packing (QUDA's
/// encoded gauge layout), autotuning, execution and validation.
pub struct StaggeredDslashTest {
    lattice: Lattice,
    gauge: GaugeField<DoubleComplex>,
    b: QuarkField<DoubleComplex>,
    parity: Parity,
    recon: Recon,
    mem: DeviceMemory,
    tables: QudaTables,
}

/// Result of a tuned run.
#[derive(Clone, Debug)]
pub struct QudaOutcome {
    /// The recon scheme used.
    pub recon: Recon,
    /// Winning block size.
    pub local_size: u32,
    /// Kernel launch report.
    pub report: LaunchReport,
    /// Queue (CUDA stream, in-order) overhead, µs.
    pub queue_overhead_us: f64,
    /// GFLOP/s as the paper computes it (theoretical FLOPs / wall time).
    pub gflops: f64,
    /// Deviation from the CPU reference.
    pub error: MaxError,
}

impl StaggeredDslashTest {
    /// Build a random problem (same field content as
    /// `DslashProblem::random` for the same seed).
    pub fn random(l: usize, seed: u64, recon: Recon) -> Self {
        let (gauge, b) = milc_dslash::random_fields(l, seed);
        Self::from_fields(gauge, b, Parity::Even, recon)
    }

    /// Build from explicit fields.
    pub fn from_fields(
        gauge: GaugeField<DoubleComplex>,
        b: QuarkField<DoubleComplex>,
        parity: Parity,
        recon: Recon,
    ) -> Self {
        let lattice = gauge.lattice().clone();
        let nt = NeighborTable::build(&lattice);
        let mut mem = DeviceMemory::new();
        let reals = recon.reals();
        let hv = lattice.half_volume();

        // Parity-compacted gauge arrays: only the target-parity sites'
        // links are ever read (backward links are pre-adjointed and
        // target-site indexed), so QUDA stores them by checkerboard
        // index.
        let mut u = [0u64; 4];
        for (l, link) in LinkType::ALL.iter().enumerate() {
            let buf = mem.alloc((hv * 4 * reals * 8) as u64, &format!("quda-U[{l}]"));
            for cb in 0..hv {
                let s = lattice.site_of_checkerboard(cb, parity);
                for k in 0..4 {
                    let enc = recon::encode(gauge.link(*link, s, k), recon);
                    mem.write_f64_slice(&buf, ((cb * 4 + k) * reals * 8) as u64, &enc);
                }
            }
            u[l] = buf.base();
        }

        // Neighbor tables hold the *source checkerboard index*.
        let mut nbr = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // l indexes table lookups and buffers in lockstep
        for l in 0..4 {
            let buf = mem.alloc((hv * 16) as u64, &format!("quda-nbr[{l}]"));
            for cb in 0..hv {
                let s = lattice.site_of_checkerboard(cb, parity);
                for k in 0..4 {
                    let src = nt.source_site(l, s, k);
                    mem.write_u32(
                        buf.base() + ((cb * 4 + k) * 4) as u64,
                        lattice.checkerboard_index(src) as u32,
                    );
                }
            }
            nbr[l] = buf.base();
        }

        // Source vector, opposite-parity checkerboard order.
        let b_buf = mem.alloc((hv * 48) as u64, "quda-B");
        for cb in 0..hv {
            let s = lattice.site_of_checkerboard(cb, parity.flip());
            for j in 0..3 {
                let z = b.site(s).c[j];
                mem.write_f64(b_buf.base() + ((cb * 3 + j) * 16) as u64, z.re);
                mem.write_f64(b_buf.base() + ((cb * 3 + j) * 16 + 8) as u64, z.im);
            }
        }

        let c_buf = mem.alloc((hv * 48) as u64, "quda-C");

        let tables = QudaTables {
            u,
            nbr,
            b: b_buf.base(),
            c: c_buf.base(),
            half_volume: hv as u64,
        };
        Self {
            lattice,
            gauge,
            b,
            parity,
            recon,
            mem,
            tables,
        }
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The recon scheme.
    pub fn recon(&self) -> Recon {
        self.recon
    }

    /// Autotune, warm up, run, validate — the `staggered_dslash_test`
    /// loop: the tuner's sweep leaves the caches warm and the timed
    /// iterations run warm, matching the paper's 100-iteration means.
    /// Uses an in-order queue — CUDA stream semantics (Section IV-D6).
    pub fn run(&self, device: &DeviceSpec) -> Result<QudaOutcome, SimError> {
        let kernel = QudaDslashKernel::<DoubleComplex>::new(self.tables, self.recon);
        let global = self.lattice.half_volume() as u64;
        let tuned = autotune(
            &kernel,
            global,
            &default_candidates(device),
            device,
            &self.mem,
        )?;

        let range = padded_range(global, tuned.best_local_size);
        let mut state = DeviceState::new(device);
        let launcher = Launcher::new(device);
        launcher.launch_with_state(&kernel, range, &self.mem, &mut state)?; // warmup

        self.zero_output();
        let mut queue = Queue::new(Launcher::new(device), QueueMode::InOrder);
        let (report, overhead) = {
            let sub = queue.submit_with_state(&kernel, range, &self.mem, &mut state)?;
            (sub.report.clone(), sub.overhead_us)
        };

        let device_out = self.read_output();
        let expect = reference::dslash(&self.gauge, &self.b, self.parity);
        let error = compare_to_reference(&device_out, &expect);

        let wall = report.duration_us + overhead;
        let gflops = theoretical_flops(&self.lattice) as f64 / wall / 1e3;
        Ok(QudaOutcome {
            recon: self.recon,
            local_size: tuned.best_local_size,
            report,
            queue_overhead_us: overhead,
            gflops,
            error,
        })
    }

    /// Zero the output buffer.
    pub fn zero_output(&self) {
        for cb in 0..self.lattice.half_volume() as u64 {
            for w in 0..6u64 {
                self.mem.write_f64(self.tables.c + cb * 48 + w * 8, 0.0);
            }
        }
    }

    /// Read the output back.
    pub fn read_output(&self) -> Vec<ColorVector<DoubleComplex>> {
        (0..self.lattice.half_volume() as u64)
            .map(|cb| {
                let mut v = ColorVector::zero();
                for i in 0..3u64 {
                    v.c[i as usize] = DoubleComplex::new(
                        self.mem.read_f64(self.tables.c + (cb * 3 + i) * 16),
                        self.mem.read_f64(self.tables.c + (cb * 3 + i) * 16 + 8),
                    );
                }
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recon18_matches_reference() {
        let t = StaggeredDslashTest::random(4, 5, Recon::R18);
        let out = t.run(&DeviceSpec::test_small()).unwrap();
        assert!(
            out.error.within_reassociation_noise(),
            "error {:?}",
            out.error
        );
        assert!(out.gflops > 0.0);
        assert!(out.local_size.is_multiple_of(32));
    }

    #[test]
    fn recon12_matches_reference() {
        let t = StaggeredDslashTest::random(4, 6, Recon::R12);
        let out = t.run(&DeviceSpec::test_small()).unwrap();
        assert!(out.error.rel < 1e-10, "error {:?}", out.error);
    }

    #[test]
    fn recon9_matches_reference_within_recon_noise() {
        let t = StaggeredDslashTest::random(4, 7, Recon::R9);
        let out = t.run(&DeviceSpec::test_small()).unwrap();
        assert!(
            out.error.rel < Recon::R9.tolerance(),
            "error {:?}",
            out.error
        );
    }

    #[test]
    fn compression_reduces_memory_traffic() {
        let t18 = StaggeredDslashTest::random(4, 8, Recon::R18);
        let t9 = StaggeredDslashTest::random(4, 8, Recon::R9);
        let d = DeviceSpec::test_small();
        let o18 = t18.run(&d).unwrap();
        let o9 = t9.run(&d).unwrap();
        assert!(
            o9.report.counters.l1_sector_requests < o18.report.counters.l1_sector_requests,
            "recon 9 must load fewer sectors"
        );
        assert!(
            o9.report.counters.flops > o18.report.counters.flops,
            "recon 9 must spend more FLOPs reconstructing"
        );
    }
}
