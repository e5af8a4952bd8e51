//! The host-speed probe behind the sweeps' timings.
//!
//! The benchmark runs on a few cores of a shared host whose speed changes
//! by up to a half from one stretch of seconds to the next as other
//! tenants load it, far more than a code change moves a sweep. The sweeps
//! therefore run this probe, a fixed piece of work compiled into the
//! benchmark, between every few loops and scale each measured time by
//! [`PROBE_REF_NS`] over the probe's time around it: a time is reported as
//! it would read on a host where the probe takes [`PROBE_REF_NS`]. The
//! probe is the benchmark's own code, so a change to the repository cannot
//! move it; sorting small arrays of pairs tracks the schedulers' slowdowns
//! on this host more closely than pure arithmetic or memory chasing does.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host, in nanoseconds: about its time
/// on an unloaded core of the 2-vCPU x86-64 VM the benchmark was tuned on,
/// so scaled times read close to raw ones there.
pub const PROBE_REF_NS: f64 = 150_000.0;

/// Sorts of the probe's work.
const SORTS: u32 = 12;

/// Pairs per sort.
const PAIRS: usize = 400;

/// Runs of the probe per measurement; the fastest counts, so a run cut by
/// a preemption does not.
const RUNS: usize = 3;

/// The probe's work: sorts [`SORTS`] arrays of [`PAIRS`] xorshift pairs.
fn work() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut sum = 0u64;
    for _ in 0..SORTS {
        let mut pairs: Vec<(u32, u32)> = (0..PAIRS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 40) as u32, x as u32)
            })
            .collect();
        black_box(&mut pairs).sort_unstable();
        sum = sum.wrapping_add(u64::from(pairs[PAIRS / 2].0));
    }
    sum
}

/// The probe's time now, in nanoseconds: the fastest of [`RUNS`] runs.
pub fn probe_ns() -> f64 {
    (0..RUNS)
        .map(|_| {
            let started = Instant::now();
            black_box(work());
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales a time measured between probes of `before_ns`
/// and `after_ns` to the reference host.
pub fn scale(before_ns: f64, after_ns: f64) -> f64 {
    2.0 * PROBE_REF_NS / (before_ns + after_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(work(), work());
        assert!(probe_ns() > 0.0);
    }

    #[test]
    fn a_host_twice_as_slow_as_the_reference_halves_the_times() {
        assert_eq!(scale(PROBE_REF_NS, PROBE_REF_NS), 1.0);
        assert_eq!(scale(2.0 * PROBE_REF_NS, 2.0 * PROBE_REF_NS), 0.5);
        assert_eq!(scale(PROBE_REF_NS, 3.0 * PROBE_REF_NS), 0.5);
    }
}
