//! The STREAM methodology (McCalpin, paper ref \[1\]).
//!
//! The paper's "achievable peak" roofline divides the FFT's minimum
//! memory traffic by the bandwidth *measured with STREAM*, not the
//! channel's theoretical rate. The presets already store the measured
//! numbers from §V, so this module's job is methodological fidelity:
//! it runs the triad access pattern through the discrete-event engine
//! (all threads streaming concurrently against the per-socket channels)
//! and reports what a STREAM run on the simulated machine would print.

use crate::engine::{Engine, ThreadProg};
use crate::spec::MachineSpec;

/// Result of the simulated STREAM triad.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamResult {
    /// Aggregate triad bandwidth over the whole machine, GB/s.
    pub triad_gbs: f64,
    /// Per-socket bandwidth, GB/s.
    pub per_socket_gbs: f64,
}

/// Simulates `a[i] = b[i] + s·c[i]` over `elems` doubles per socket,
/// with one streaming thread per core (NUMA-local, as STREAM is run).
pub fn stream_triad(spec: &MachineSpec, elems_per_socket: usize) -> StreamResult {
    let mut engine = Engine::new();
    let mut dram_ids = Vec::new();
    for s in 0..spec.sockets {
        dram_ids.push(engine.add_resource(
            format!("dram{s}"),
            spec.dram_bytes_per_ns(),
        ));
    }
    // Triad moves 3 arrays' worth of bytes: 2 reads + 1 write
    // (non-temporal store; with temporal stores it would be 4 with RFO,
    // which is why STREAM results depend on the store flavour).
    let bytes_per_socket = (3 * 8 * elems_per_socket) as f64;
    let per_thread = bytes_per_socket / spec.cores_per_socket as f64;
    let mut progs = Vec::new();
    for &dram in &dram_ids {
        for _ in 0..spec.cores_per_socket {
            let mut p = ThreadProg::new();
            p.use_res(dram, per_thread);
            progs.push(p);
        }
    }
    let stats = engine.run(progs);
    let total_bytes = bytes_per_socket * spec.sockets as f64;
    let triad_gbs = total_bytes / stats.total_ns;
    StreamResult {
        triad_gbs,
        per_socket_gbs: triad_gbs / spec.sockets as f64,
    }
}

/// Convenience: the achievable bandwidth figure used in the paper's
/// peak formula (whole-machine GB/s).
pub fn achievable_bandwidth_gbs(spec: &MachineSpec) -> f64 {
    stream_triad(spec, 1 << 24).triad_gbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::presets;

    #[test]
    fn triad_saturates_the_configured_bandwidth() {
        for spec in presets::all() {
            let r = stream_triad(&spec, 1 << 22);
            let expect = spec.total_dram_bw_gbs();
            assert!(
                (r.triad_gbs - expect).abs() < 1e-6 * expect,
                "{}: got {} expected {}",
                spec.name,
                r.triad_gbs,
                expect
            );
        }
    }

    #[test]
    fn two_sockets_double_the_single_socket_rate() {
        let spec = presets::haswell_2667v3_2s();
        let r = stream_triad(&spec, 1 << 22);
        assert!((r.triad_gbs - 2.0 * r.per_socket_gbs).abs() < 1e-9);
    }

    #[test]
    fn matches_paper_quoted_numbers() {
        // §V quotes 20/40/12 GB/s for the single-socket machines and
        // 85/20 for the duals.
        assert!((achievable_bandwidth_gbs(&presets::haswell_4770k()) - 20.0).abs() < 0.1);
        assert!((achievable_bandwidth_gbs(&presets::kaby_lake_7700k()) - 40.0).abs() < 0.1);
        assert!((achievable_bandwidth_gbs(&presets::amd_fx_8350()) - 12.0).abs() < 0.1);
        assert!((achievable_bandwidth_gbs(&presets::haswell_2667v3_2s()) - 85.0).abs() < 0.1);
        assert!((achievable_bandwidth_gbs(&presets::amd_opteron_6276_2s()) - 20.0).abs() < 0.1);
    }
}
