//! Host-speed calibration.
//!
//! On a shared host the speed of a vCPU drifts: other tenants' load
//! slows the same fixed work by up to 1.8×, second by second and for
//! stretches of tens of seconds, in CPU time as much as in wall time, so
//! neither longer runs nor best-of-N timing removes it. The benchmark
//! therefore runs a fixed calibration kernel, which depends on no code
//! of the repository, between blocks of about [`BLOCK_NS`] of work, and
//! scales each block's times by [`REFERENCE_NS`] / (the kernel's time
//! around it). Normalized times read as times on a host on which the
//! kernel takes [`REFERENCE_NS`]; a change to the repository's code
//! moves them as it moves the raw times, while a change of host speed
//! moves the kernel as well and cancels.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, ns, that normalized times are scaled to: about the
/// kernel's time on a lightly loaded 2-vCPU x86-64 VM.
pub const REFERENCE_NS: f64 = 400_000.0;

/// Work is timed in blocks of at least this much wall time, with a
/// calibration sample between blocks.
pub const BLOCK_NS: u64 = 40_000_000;

/// A block's factor uses the samples taken within this much time of it.
pub const WINDOW_NS: u64 = 200_000_000;

/// Kernel runs per calibration sample (the sample is their median).
const RUNS: usize = 5;

/// Entries of the pointer-chasing cycle (256 KiB of `u32`).
const CHASE_LEN: usize = 1 << 16;
const CHASE_STEPS: usize = 10_000;
const MAP_KEYS: u32 = 1_000;
const SORT_LEN: usize = 2_000;
const TREE_INSERTS: u64 = 1_500;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// The calibration kernel and its data.
pub struct Calibrator {
    chase: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the kernel's pointer-chasing cycle (Sattolo's shuffle, so
    /// the chase visits every entry).
    pub fn new() -> Calibrator {
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for i in (1..CHASE_LEN).rev() {
            x = xorshift(x);
            chase.swap(i, (x % i as u64) as usize);
        }
        Calibrator { chase }
    }

    /// Fixed work of the kinds the pipeline does: dependent loads over a
    /// cache-sized working set, hashing and B-tree maps with small
    /// allocations, and a branchy sort. Of the kernels tried, these
    /// tracked the pipeline's slowdowns best; pure arithmetic and
    /// DRAM-bound pointer chasing tracked them worst.
    fn kernel(&self) -> u64 {
        let mut i = 0u32;
        let mut acc = 0u64;
        for _ in 0..CHASE_STEPS {
            i = self.chase[i as usize];
            acc = acc.wrapping_add(u64::from(i));
        }
        let mut map: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut x = acc | 1;
        for n in 0..MAP_KEYS {
            x = xorshift(x);
            map.entry(x % 512).or_default().push(n);
        }
        for _ in 0..MAP_KEYS {
            x = xorshift(x);
            acc = acc.wrapping_add(map.get(&(x % 1024)).map_or(0, |v| v.len() as u64));
        }
        let mut v: Vec<u64> = (0..SORT_LEN)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        v.sort_unstable();
        let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for n in 0..TREE_INSERTS {
            x = xorshift(x);
            tree.entry(x % 1024).or_default().push(n);
        }
        acc ^ v[SORT_LEN / 2] ^ map.len() as u64 ^ tree.len() as u64
    }

    /// One calibration sample: the median kernel time, ns, over
    /// [`RUNS`] runs.
    pub fn sample(&self) -> u64 {
        let mut t: Vec<u64> = (0..RUNS)
            .map(|_| {
                let s = Instant::now();
                black_box(self.kernel());
                s.elapsed().as_nanos() as u64
            })
            .collect();
        t.sort_unstable();
        t[RUNS / 2]
    }
}

/// [`REFERENCE_NS`] / the median of `samples`.
fn factor_of(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    REFERENCE_NS / (samples[samples.len() / 2] as f64).max(1.0)
}

/// Times a stretch of work in blocks of at least [`BLOCK_NS`], with a
/// calibration sample before, between and after the blocks; the
/// samples' own time is in no block. A block's factor is taken over the
/// samples within [`WINDOW_NS`] of it, so that one noisy sample does not
/// scale a block on its own.
pub struct Meter<'a> {
    calib: &'a Calibrator,
    epoch: Instant,
    /// (ns since `epoch` at the sample's middle, kernel ns)
    samples: Vec<(u64, u64)>,
    /// (start, end), ns since `epoch`
    blocks: Vec<(u64, u64)>,
    open: u64,
}

impl<'a> Meter<'a> {
    /// Takes a calibration sample and opens the first block.
    pub fn start(calib: &'a Calibrator) -> Meter<'a> {
        let mut m = Meter {
            calib,
            epoch: Instant::now(),
            samples: Vec::new(),
            blocks: Vec::new(),
            open: 0,
        };
        m.take_sample();
        m
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn take_sample(&mut self) {
        let t0 = self.now();
        let ns = self.calib.sample();
        let t1 = self.now();
        self.samples.push(((t0 + t1) / 2, ns));
        self.open = t1;
    }

    fn close(&mut self) {
        self.blocks.push((self.open, self.now()));
        self.take_sample();
    }

    /// Between two pieces of work: once the open block has run
    /// [`BLOCK_NS`], closes it and opens the next; true if it did.
    pub fn tick(&mut self) -> bool {
        let due = self.now() - self.open >= BLOCK_NS;
        if due {
            self.close();
        }
        due
    }

    /// Closes the open block; returns each block's wall time, ns, and
    /// scale factor.
    pub fn finish(mut self) -> Vec<(u64, f64)> {
        self.close();
        self.blocks
            .iter()
            .map(|&(start, end)| {
                let mut near: Vec<u64> = self
                    .samples
                    .iter()
                    .filter(|(t, _)| t + WINDOW_NS >= start && *t <= end + WINDOW_NS)
                    .map(|s| s.1)
                    .collect();
                (end - start, factor_of(&mut near))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle() {
        let c = Calibrator::new();
        let mut i = 0u32;
        for step in 1..=CHASE_LEN {
            i = c.chase[i as usize];
            if i == 0 {
                assert_eq!(step, CHASE_LEN);
            }
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn the_factor_is_one_at_reference_speed() {
        let r = REFERENCE_NS as u64;
        assert!((factor_of(&mut [r, 3 * r, r / 2]) - 1.0).abs() < 1e-12);
        assert!((factor_of(&mut [2 * r]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_meter_times_the_work_between_its_samples() {
        let c = Calibrator::new();
        let mut m = Meter::start(&c);
        let t0 = Instant::now();
        while !m.tick() {}
        let blocks = m.finish();
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].0 >= BLOCK_NS);
        assert!(blocks.iter().map(|b| b.0).sum::<u64>() <= t0.elapsed().as_nanos() as u64);
        assert!(blocks.iter().all(|b| b.1 > 0.0 && b.1.is_finite()));
    }
}
