//! The host-speed probe. This sandbox's speed wanders by tens of percent
//! over seconds to minutes (neighbours on shared cores and caches; no
//! steal time is reported), and a repetition's raw wall wanders with it:
//! the same work took between 1.5 s and 2.8 s within five minutes. The
//! probe is a fixed unit of work with the simulator's own mix — hashing
//! plus random lookups in a table past the private L2 — run every
//! [`EVERY`] of measured time on the measuring thread, outside every
//! stopwatch. Host times are then reported in *reference seconds*:
//! wall ÷ (mean unit time seen alongside ÷ [`NOMINAL_UNIT`]). On a quiet
//! sandbox a reference second is a second; under contention it stays put
//! where a wall second stretches (measured over 4 × 60 repetitions:
//! 7–13 % run-to-run spread raw, 2–4 % scaled; a compute-only or a
//! latency-only probe tracked half as well).
//!
//! The probe is frozen: it shares no code with the crates under test, or
//! a change there would move the yardstick.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measured time between two probe units.
pub const EVERY: Duration = Duration::from_millis(40);
/// A unit's duration on the quiet sandbox this benchmark was defined on.
const NOMINAL_UNIT: Duration = Duration::from_micros(1_200);
const KEYS: u64 = 1 << 17;
const LOOKUPS: u64 = 20_000;

fn scatter(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub struct SpeedProbe {
    /// SipHash with fixed keys: the same table in every process.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
    spent: Duration,
    units: u32,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            table: (0..KEYS).map(|k| (scatter(k), k)).collect(),
            state: 0x2545_F491_4F6C_DD1D,
            spent: Duration::ZERO,
            units: 0,
        }
    }

    /// Runs one unit and adds it to the mean.
    pub fn unit(&mut self) {
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            sum += self.table[&scatter(self.state % KEYS)];
        }
        black_box(sum);
        self.spent += t.elapsed();
        self.units += 1;
    }

    /// Forgets the units so far, so the next reading covers only what
    /// follows.
    pub fn restart(&mut self) {
        self.spent = Duration::ZERO;
        self.units = 0;
    }

    /// Mean unit time ÷ nominal: above 1 when the host is slower than the
    /// reference.
    pub fn slowdown(&self) -> f64 {
        assert!(self.units > 0, "a reading needs at least one probe unit");
        self.spent.as_secs_f64() / self.units as f64 / NOMINAL_UNIT.as_secs_f64()
    }
}
