//! Query cost accounting.
//!
//! The paper's backend-load claims (a 10× drop in social-graph
//! queries-per-second for LiveVideoComments, up to 5% global IOPS reduction
//! at peak) are about *how expensive* different query shapes are. Every TAO
//! operation in this crate returns a [`QueryCost`] describing what it
//! touched, and stores aggregate [`CostCounters`] so experiment harnesses
//! can compare polling against Bladerunner's point-query pattern.

use std::ops::AddAssign;

/// The cost of one TAO operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryCost {
    /// Distinct shards this operation had to touch.
    pub shards_touched: u64,
    /// Rows (objects or associations) scanned, including index entries.
    pub rows_read: u64,
    /// Rows written.
    pub rows_written: u64,
    /// Follower-cache hits.
    pub cache_hits: u64,
    /// Follower-cache misses (each one is a storage read).
    pub cache_misses: u64,
    /// Estimated CPU microseconds, derived from the above.
    pub cpu_us: u64,
}

simkit::snap_struct!(QueryCost {
    shards_touched,
    rows_read,
    rows_written,
    cache_hits,
    cache_misses,
    cpu_us
});

/// CPU cost constants (microseconds), loosely calibrated so that a point
/// read is cheap, rows scanned dominate range queries, and intersect
/// queries pay a per-candidate merge cost.
mod cpu {
    pub const BASE_OP: u64 = 5;
    pub const PER_SHARD: u64 = 10;
    pub const PER_ROW_READ: u64 = 1;
    pub const PER_ROW_WRITE: u64 = 4;
    pub const PER_MISS: u64 = 50;
}

impl QueryCost {
    /// Computes the estimated CPU time from the touch counts.
    pub fn finish(mut self) -> QueryCost {
        self.cpu_us = cpu::BASE_OP
            + cpu::PER_SHARD * self.shards_touched
            + cpu::PER_ROW_READ * self.rows_read
            + cpu::PER_ROW_WRITE * self.rows_written
            + cpu::PER_MISS * self.cache_misses;
        self
    }

    /// Storage I/O operations implied by this query (misses + writes).
    pub fn iops(&self) -> u64 {
        self.cache_misses + self.rows_written
    }
}

impl AddAssign for QueryCost {
    fn add_assign(&mut self, rhs: QueryCost) {
        self.shards_touched += rhs.shards_touched;
        self.rows_read += rhs.rows_read;
        self.rows_written += rhs.rows_written;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.cpu_us += rhs.cpu_us;
    }
}

/// Aggregate cost counters for a store or a region.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostCounters {
    /// Total operations.
    pub ops: u64,
    /// Operations that returned no rows (the "empty poll" measure).
    pub empty_ops: u64,
    /// Accumulated per-operation costs.
    pub total: QueryCost,
}

simkit::snap_struct!(CostCounters {
    ops,
    empty_ops,
    total
});

impl CostCounters {
    /// Records one operation's cost; `rows` is the result-set size.
    pub fn record(&mut self, cost: QueryCost, rows: usize) {
        self.ops += 1;
        if rows == 0 {
            self.empty_ops += 1;
        }
        self.total += cost;
    }

    /// Fraction of operations that returned nothing.
    pub fn empty_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.empty_ops as f64 / self.ops as f64
        }
    }

    /// Total storage IOPS.
    pub fn iops(&self) -> u64 {
        self.total.iops()
    }

    /// Total estimated CPU seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.total.cpu_us as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_computes_cpu() {
        let c = QueryCost {
            shards_touched: 2,
            rows_read: 10,
            rows_written: 1,
            cache_hits: 3,
            cache_misses: 1,
            cpu_us: 0,
        }
        .finish();
        assert_eq!(c.cpu_us, 5 + 20 + 10 + 4 + 50);
        assert_eq!(c.iops(), 2);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = QueryCost::default();
        a += QueryCost {
            shards_touched: 1,
            rows_read: 2,
            ..Default::default()
        };
        a += QueryCost {
            shards_touched: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(a.shards_touched, 4);
        assert_eq!(a.rows_read, 2);
        assert_eq!(a.cache_misses, 1);
    }

    #[test]
    fn counters_empty_fraction() {
        let mut c = CostCounters::default();
        c.record(QueryCost::default(), 0);
        c.record(QueryCost::default(), 3);
        c.record(QueryCost::default(), 0);
        assert!((c.empty_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.ops, 3);
    }

    #[test]
    fn counters_empty_on_no_ops() {
        let c = CostCounters::default();
        assert_eq!(c.empty_fraction(), 0.0);
        assert_eq!(c.iops(), 0);
    }
}
