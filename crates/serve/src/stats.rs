//! Server counters, gauges and service-time percentiles.
//!
//! Counters are lock-free atomics bumped on the hot path; service
//! times are recorded in microseconds under a mutex (one push per
//! analyze response — cheap next to the analysis itself) and reduced
//! to p50/p99 only when a snapshot is taken.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use xrta_robust::jsonflat::Fields;

/// Live counters for one server instance. All increments are relaxed:
/// the numbers are for operators, not for synchronisation.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Frames that parsed into an analyze request.
    pub requests: AtomicU64,
    /// Analyze requests answered (fresh or cached).
    pub answered: AtomicU64,
    /// Served from the in-memory tier.
    pub hits_mem: AtomicU64,
    /// Served from the on-disk tier (and promoted to memory).
    pub hits_disk: AtomicU64,
    /// Required a computation (single-flight leaders only).
    pub misses: AtomicU64,
    /// Full analyses actually run. `misses` counts keys that were not
    /// cached; `computations` counts sessions executed — equal unless
    /// a leader crashed and a follower re-led.
    pub computations: AtomicU64,
    /// Requests shed with `busy` (queue full) by admission control.
    pub sheds: AtomicU64,
    /// Requests shed with `busy(memory)` while the process sat above
    /// its hard memory watermark.
    pub sheds_memory: AtomicU64,
    /// Requests refused with `shutting_down` during drain.
    pub shutdowns: AtomicU64,
    /// Requests that ended in an `error` response.
    pub errors: AtomicU64,
    /// Analyze requests currently being computed by a worker.
    pub in_flight: AtomicU64,
    /// Analyze requests currently waiting in the bounded queue.
    pub queue_depth: AtomicU64,
    /// Oracle batches executed (multi-rung, shared χ engine), summed
    /// over every approx-2 analysis.
    pub oracle_batches: AtomicU64,
    /// Delta-request cones answered from the cone cache (either tier)
    /// or deduplicated against an in-flight cone computation.
    pub cone_hits: AtomicU64,
    /// Delta-request cones that had to be analysed fresh.
    pub cone_misses: AtomicU64,
    /// Cached cone verdicts spliced into delta responses. Equal to
    /// `cone_hits` unless a splice was abandoned mid-flight.
    pub cone_splices: AtomicU64,
    /// Completed analyze service times, microseconds.
    service_us: Mutex<Vec<u64>>,
}

impl ServeStats {
    /// Records one completed analyze request's wall time.
    pub fn record_service(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.service_us.lock().unwrap().push(us);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        let lat = self.service_us.lock().unwrap();
        let mut sorted = lat.clone();
        drop(lat);
        sorted.sort_unstable();
        let pct = |p: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let rank = ((sorted.len() as f64) * p).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            hits_mem: self.hits_mem.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            computations: self.computations.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            shutdowns: self.shutdowns.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            oracle_batches: self.oracle_batches.load(Ordering::Relaxed),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            cone_hits: self.cone_hits.load(Ordering::Relaxed),
            cone_misses: self.cone_misses.load(Ordering::Relaxed),
            cone_splices: self.cone_splices.load(Ordering::Relaxed),
            sheds_memory: self.sheds_memory.load(Ordering::Relaxed),
            // Memory gauges read the process-global meter rather than
            // a per-server counter: the meter is the source of truth
            // for what the accounted subsystems hold right now.
            mem_bytes: xrta_robust::mem::global().total(),
            mem_peak: xrta_robust::mem::global().total_peak(),
        }
    }
}

/// A point-in-time copy of the counters, as carried by the `stats`
/// response and printed as the final stats line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::requests`].
    pub requests: u64,
    /// See [`ServeStats::answered`].
    pub answered: u64,
    /// See [`ServeStats::hits_mem`].
    pub hits_mem: u64,
    /// See [`ServeStats::hits_disk`].
    pub hits_disk: u64,
    /// See [`ServeStats::misses`].
    pub misses: u64,
    /// See [`ServeStats::computations`].
    pub computations: u64,
    /// See [`ServeStats::sheds`].
    pub sheds: u64,
    /// See [`ServeStats::shutdowns`].
    pub shutdowns: u64,
    /// See [`ServeStats::errors`].
    pub errors: u64,
    /// See [`ServeStats::in_flight`].
    pub in_flight: u64,
    /// See [`ServeStats::queue_depth`].
    pub queue_depth: u64,
    /// See [`ServeStats::oracle_batches`].
    pub oracle_batches: u64,
    /// Median analyze service time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile analyze service time, microseconds.
    pub p99_us: u64,
    /// See [`ServeStats::cone_hits`].
    pub cone_hits: u64,
    /// See [`ServeStats::cone_misses`].
    pub cone_misses: u64,
    /// See [`ServeStats::cone_splices`].
    pub cone_splices: u64,
    /// See [`ServeStats::sheds_memory`].
    pub sheds_memory: u64,
    /// Bytes currently charged to the process-global memory meter.
    pub mem_bytes: u64,
    /// High-water mark of the process-global memory meter.
    pub mem_peak: u64,
}

impl StatsSnapshot {
    /// Total cache hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk
    }

    /// Encodes the snapshot as a `stats` response payload.
    pub fn encode(&self) -> String {
        format!(
            "{{\"status\":\"stats\",\"requests\":{},\"answered\":{},\"hits_mem\":{},\
             \"hits_disk\":{},\"misses\":{},\"computations\":{},\"sheds\":{},\
             \"shutdowns\":{},\"errors\":{},\"in_flight\":{},\"queue_depth\":{},\
             \"oracle_batches\":{},\
             \"p50_us\":{},\"p99_us\":{},\
             \"cone_hits\":{},\"cone_misses\":{},\"cone_splices\":{},\
             \"sheds_memory\":{},\"mem_bytes\":{},\"mem_peak\":{}}}",
            self.requests,
            self.answered,
            self.hits_mem,
            self.hits_disk,
            self.misses,
            self.computations,
            self.sheds,
            self.shutdowns,
            self.errors,
            self.in_flight,
            self.queue_depth,
            self.oracle_batches,
            self.p50_us,
            self.p99_us,
            self.cone_hits,
            self.cone_misses,
            self.cone_splices,
            self.sheds_memory,
            self.mem_bytes,
            self.mem_peak,
        )
    }

    /// Parses the fields of a `stats` payload (the `status` key has
    /// already been matched by the response parser).
    pub fn parse_fields(f: &Fields) -> Result<StatsSnapshot, String> {
        Ok(StatsSnapshot {
            requests: f.get_u64("requests")?,
            answered: f.get_u64("answered")?,
            hits_mem: f.get_u64("hits_mem")?,
            hits_disk: f.get_u64("hits_disk")?,
            misses: f.get_u64("misses")?,
            computations: f.get_u64("computations")?,
            sheds: f.get_u64("sheds")?,
            shutdowns: f.get_u64("shutdowns")?,
            errors: f.get_u64("errors")?,
            in_flight: f.get_u64("in_flight")?,
            queue_depth: f.get_u64("queue_depth")?,
            oracle_batches: f.get_u64("oracle_batches")?,
            p50_us: f.get_u64("p50_us")?,
            p99_us: f.get_u64("p99_us")?,
            cone_hits: f.get_u64("cone_hits")?,
            cone_misses: f.get_u64("cone_misses")?,
            cone_splices: f.get_u64("cone_splices")?,
            // Absent on pre-memory-governance shards: default to zero
            // so a rolling cluster upgrade keeps aggregating.
            sheds_memory: f.opt_u64("sheds_memory")?.unwrap_or(0),
            mem_bytes: f.opt_u64("mem_bytes")?.unwrap_or(0),
            mem_peak: f.opt_u64("mem_peak")?.unwrap_or(0),
        })
    }

    /// The one-line operator summary printed when a server drains.
    pub fn render_line(&self) -> String {
        format!(
            "serve: {} requests | {} hits ({} mem, {} disk) | {} misses | \
             {} sheds | {} errors | p50 {:.1}ms p99 {:.1}ms | \
             oracle {} batches | \
             cones: {} hit, {} miss, {} spliced | \
             mem_bytes {} mem_peak {}",
            self.requests,
            self.hits(),
            self.hits_mem,
            self.hits_disk,
            self.misses,
            self.sheds + self.sheds_memory,
            self.errors,
            self.p50_us as f64 / 1000.0,
            self.p99_us as f64 / 1000.0,
            self.oracle_batches,
            self.cone_hits,
            self.cone_misses,
            self.cone_splices,
            self.mem_bytes,
            self.mem_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_percentiles() {
        let s = ServeStats::default();
        for ms in 1..=100u64 {
            s.record_service(Duration::from_millis(ms));
        }
        let snap = s.snapshot();
        assert_eq!(snap.p50_us, 50_000);
        assert_eq!(snap.p99_us, 99_000);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let snap = ServeStats::default().snapshot();
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p99_us, 0);
    }

    #[test]
    fn snapshot_round_trips_through_the_wire_encoding() {
        let snap = StatsSnapshot {
            requests: 10,
            answered: 7,
            hits_mem: 3,
            hits_disk: 1,
            misses: 3,
            computations: 3,
            sheds: 2,
            shutdowns: 1,
            errors: 0,
            in_flight: 1,
            queue_depth: 4,
            oracle_batches: 7,
            p50_us: 1500,
            p99_us: 90_000,
            cone_hits: 21,
            cone_misses: 2,
            cone_splices: 21,
            sheds_memory: 1,
            mem_bytes: 123_456,
            mem_peak: 654_321,
        };
        let f = Fields::parse(&snap.encode()).unwrap();
        assert_eq!(StatsSnapshot::parse_fields(&f).unwrap(), snap);
        assert_eq!(snap.hits(), 4);
        assert!(
            snap.render_line().contains("10 requests"),
            "{}",
            snap.render_line()
        );
        // Queue and memory sheds fold into one operator column.
        assert!(
            snap.render_line().contains("3 sheds"),
            "{}",
            snap.render_line()
        );
        assert!(
            snap.render_line()
                .ends_with("mem_bytes 123456 mem_peak 654321"),
            "{}",
            snap.render_line()
        );
    }

    #[test]
    fn legacy_stats_payload_without_memory_fields_still_parses() {
        let mut snap = StatsSnapshot {
            requests: 3,
            sheds_memory: 9,
            mem_bytes: 9,
            mem_peak: 9,
            ..StatsSnapshot::default()
        };
        // A pre-memory-governance shard never sends the trailing trio;
        // strip it from the encoding and re-parse.
        let encoded = snap.encode();
        let (head, _) = encoded.split_once(",\"sheds_memory\"").unwrap();
        let f = Fields::parse(&format!("{head}}}")).unwrap();
        snap.sheds_memory = 0;
        snap.mem_bytes = 0;
        snap.mem_peak = 0;
        assert_eq!(StatsSnapshot::parse_fields(&f).unwrap(), snap);
    }

    #[test]
    fn payload_with_retired_fields_still_parses() {
        // An older shard may still send counters this version no
        // longer reads; they are ignored, not rejected.
        let snap = StatsSnapshot {
            requests: 5,
            oracle_batches: 2,
            ..StatsSnapshot::default()
        };
        let encoded = snap.encode();
        let (head, tail) = encoded.split_once(",\"oracle_batches\"").unwrap();
        let older = format!("{head},\"oracle_retired\":7,\"oracle_batches\"{tail}");
        let f = Fields::parse(&older).unwrap();
        assert_eq!(StatsSnapshot::parse_fields(&f).unwrap(), snap);
    }
}
