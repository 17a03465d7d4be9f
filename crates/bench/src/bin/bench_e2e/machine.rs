//! What the harness does about the machine it runs on: a shared VM with a
//! few virtual cores whose speed moves with the neighbours' load, by tens
//! of per cent and for minutes at a time.
//!
//! * [`pin_to_one_cpu`] keeps the process on one core, so the library
//!   sizes its thread pools to one thread and no sample depends on where
//!   the scheduler puts a second one.
//! * [`Sentinel`] times a fixed piece of work that shares no code with the
//!   repository. Its time over its time on a quiet machine is how much
//!   slower the machine is right now ([`Sentinel::slowdown`]); the metric
//!   run divides every timing by it.

use std::hint::black_box;
use std::time::Instant;

use crate::run::ms;
use crate::Res;

/// Restricts the process (and every thread and child it starts later) to
/// the highest-numbered CPU it is allowed on; CPU 0 is left to the
/// interrupts it usually takes.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Res<()> {
    // glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or("the process may run on no CPU")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    Ok(())
}

/// Other systems have no such call; the benchmark reads `/proc` and runs
/// on Linux only.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Res<()> {
    Err("pinning the process to one CPU needs Linux".into())
}

/// One timing of each part of the sentinel, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelSample {
    /// A dependent xorshift chain: one instruction at a time, no memory.
    pub alu_ms: f64,
    /// Independent multiply-add-reduce over an L1-resident array: the
    /// multiplier ports, as an NTT butterfly loop uses them.
    pub mulmod_ms: f64,
    /// One word per cache line, read and written, over the whole buffer.
    pub mem_ms: f64,
    /// Every word of the buffer, read, multiplied and written in order.
    pub stream_ms: f64,
}

/// What each part takes on the quiet machine the benchmark was defined
/// on. Only their ratios to a sample matter: another machine scales every
/// normalised timing by one constant.
const QUIET: SentinelSample = SentinelSample {
    alu_ms: 9.4,
    mulmod_ms: 7.7,
    mem_ms: 8.2,
    stream_ms: 11.4,
};

impl SentinelSample {
    /// How much slower than quiet the machine ran this sample: the mean of
    /// the four parts' ratios, so a neighbour that contends for one
    /// resource moves it by a quarter of what it does to that part.
    pub fn slowdown(&self) -> f64 {
        (self.alu_ms / QUIET.alu_ms
            + self.mulmod_ms / QUIET.mulmod_ms
            + self.mem_ms / QUIET.mem_ms
            + self.stream_ms / QUIET.stream_ms)
            / 4.0
    }
}

const ALU_STEPS: u64 = 5_000_000;
const MULMOD_WORDS: usize = 4096;
const MULMOD_PASSES: u64 = 600;
/// Larger than the 4 MB L2, small beside the models and key sets whose
/// peak RSS the benchmark reports.
const BUFFER_BYTES: usize = 16 << 20;
const MEM_PASSES: usize = 8;
const STREAM_PASSES: u64 = 8;

/// The sentinel's working memory.
pub struct Sentinel {
    residues: Vec<u64>,
    addends: Vec<u64>,
    buffer: Vec<u64>,
}

impl Sentinel {
    pub fn new() -> Self {
        Self {
            residues: (0..MULMOD_WORDS as u64).map(|i| i * 7919 + 1).collect(),
            addends: (0..MULMOD_WORDS as u64).map(|i| i * 104_729 + 3).collect(),
            buffer: vec![3; BUFFER_BYTES / 8],
        }
    }

    /// Runs the four parts once, about 37 ms on the quiet machine.
    pub fn sample(&mut self) -> SentinelSample {
        let start = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..ALU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        let alu_ms = ms(start.elapsed());

        let start = Instant::now();
        const Q: u128 = (1 << 36) - 5;
        for pass in 0..MULMOD_PASSES {
            let w = u128::from(pass * 2 + 12_345);
            for (x, y) in self.residues.iter_mut().zip(&self.addends) {
                *x = ((u128::from(*x) * w + u128::from(*y)) % Q) as u64;
            }
        }
        black_box(&self.residues);
        let mulmod_ms = ms(start.elapsed());

        let start = Instant::now();
        for pass in 0..MEM_PASSES {
            for i in (pass * 2..self.buffer.len()).step_by(8) {
                self.buffer[i] = self.buffer[i].wrapping_add(i as u64);
            }
        }
        black_box(&self.buffer);
        let mem_ms = ms(start.elapsed());

        let start = Instant::now();
        let mut acc = 0u64;
        for pass in 0..STREAM_PASSES {
            for v in &mut self.buffer {
                *v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(pass);
                acc ^= *v;
            }
        }
        black_box(acc);
        let stream_ms = ms(start.elapsed());

        SentinelSample {
            alu_ms,
            mulmod_ms,
            mem_ms,
            stream_ms,
        }
    }

    /// [`SentinelSample::slowdown`] of one fresh sample.
    pub fn slowdown(&mut self) -> f64 {
        self.sample().slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quiet_machine_has_slowdown_one_and_each_part_a_quarter_of_the_say() {
        assert!((QUIET.slowdown() - 1.0).abs() < 1e-12);
        let contended = SentinelSample {
            stream_ms: 2.0 * QUIET.stream_ms,
            ..QUIET
        };
        assert!((contended.slowdown() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn a_sample_times_every_part() {
        let sample = Sentinel::new().sample();
        for part in [
            sample.alu_ms,
            sample.mulmod_ms,
            sample.mem_ms,
            sample.stream_ms,
        ] {
            assert!(part > 0.0 && part.is_finite());
        }
    }
}
