//! How fast the host runs right now: a fixed reference kernel timed
//! between passes.
//!
//! On a shared host the speed a process gets drifts by tens of percent
//! over minutes (neighbours contend for cores, caches and memory), so
//! raw pass walls of the same code spread past any useful bound from
//! one run to the next. The benchmark therefore times this kernel right
//! before and after every pass, and divides each pass's wall by the mean
//! of its two neighbouring probes: the quotient moves with the program
//! and hardly with the host. Scaled by [`REFERENCE_S`] it reads as the
//! pass's seconds on a host where the probe takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// Probe seconds that define the reference host speed (the probe's
/// median on a 2-vCPU Xeon at quiet times).
pub const REFERENCE_S: f64 = 0.36;

/// Counter-table entries of the reference predictor (8 MiB, one 2-bit
/// counter per byte): larger than a core's private caches, like a
/// sweep's streams and tables.
const TABLE: usize = 1 << 23;

/// Predictions per probe.
const STEPS: u64 = 20_000_000;

/// Wall seconds of one run of the reference kernel: a global-history
/// two-bit-counter predictor over a fixed pseudo-random branch stream.
/// It shares no code with the program, so its time moves with the host
/// alone.
pub fn probe() -> f64 {
    let mut table = vec![1u8; TABLE];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut history: u64 = 0;
    let mut hits = 0u64;
    let t0 = Instant::now();
    for _ in 0..STEPS {
        // SplitMix64, inlined so the kernel depends on no program crate.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let site = z & 0x3ff;
        let taken = (z >> 32) % 7 < 4;
        let index = ((site.wrapping_mul(0x9e37) ^ history) as usize) & (TABLE - 1);
        let counter = table[index];
        hits += u64::from((counter >= 2) == taken);
        table[index] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        history = (history << 1 | u64::from(taken)) & (TABLE as u64 - 1);
    }
    black_box(hits);
    t0.elapsed().as_secs_f64()
}

/// The probe time that belongs to each of `passes` passes, given the
/// probes taken before every pass and after the last (`passes + 1` of
/// them): the mean of the two probes around it.
///
/// # Panics
///
/// Panics unless there is exactly one probe more than passes.
pub fn around(probes: &[f64], passes: usize) -> Vec<f64> {
    assert_eq!(probes.len(), passes + 1, "one probe around every pass");
    probes.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pass_gets_the_mean_of_its_neighbouring_probes() {
        assert_eq!(around(&[1.0, 3.0, 2.0], 2), [2.0, 2.5]);
        assert_eq!(around(&[0.5, 0.5], 1), [0.5]);
    }

    #[test]
    #[should_panic(expected = "one probe around every pass")]
    fn a_missing_probe_is_a_bug() {
        around(&[1.0, 2.0], 2);
    }
}
