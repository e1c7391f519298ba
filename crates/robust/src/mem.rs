//! Byte-accurate memory accounting with watermark-driven pressure.
//!
//! The analysis engines bound their *node* and *conflict* counts, but
//! the bytes behind them — the BDD arena and its apply tables, the SAT
//! clause database, χ memo tables, verdict/cone caches, the serve LRU —
//! grow unaccounted. [`MemoryMeter`] gives every one of those
//! allocators a named account of atomic byte counters (charge /
//! release / peak), summed into a process-wide total, so a single
//! `--mem-limit` can govern them all:
//!
//! * **soft watermark** (7/8 of the limit): the subsystem reclaims in
//!   place — BDD apply-table shrink, SAT learned-clause reduction,
//!   memo/cache eviction — and keeps going;
//! * **hard watermark** (the limit itself): the subsystem stops
//!   cooperatively with its layer's `MemoryOut` error, which the
//!   session ladder converts into a sound degraded verdict, exactly
//!   like a deadline. Stops happen at the same amortized poll points
//!   the node/conflict budgets use (every 1024 BDD `mk`s, every 256
//!   SAT conflicts, …), so the recorded peak may overshoot the limit
//!   by up to one poll interval's allocations — that bounded slop is
//!   the price of keeping the hot paths check-free.
//!
//! Accounting is estimates-by-construction (capacity × entry size),
//! not malloc telemetry, and the meter is process-global: concurrent
//! analyses share one total, which is the conservative reading a
//! server wants. Pure accounting is always on (relaxed atomics, no
//! locks); pressure *checks* only run where a limit was configured, so
//! an ungoverned run behaves bit-for-bit as before.
//!
//! The `mem::pressure` failpoint (feature `failpoints`) injects
//! synthetic pressure — `exhaust` reads as hard, `err` as soft — so
//! chaos tests drive every reclamation and degradation path without
//! allocating gigabytes.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named byte account on the meter. One per instrumented allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Subsystem {
    /// BDD arena + unique/apply tables (`xrta-bdd`).
    Bdd,
    /// SAT clause database (`xrta-sat`).
    Sat,
    /// χ memoization tables (`xrta-chi`).
    ChiMemo,
    /// The §4.3 oracle's per-cone verdict stores (`xrta-core` approx2).
    Stripes,
    /// Cone slices and splice state (`xrta-core::cone`).
    Cone,
    /// Serve in-memory result cache (`xrta-serve::cache`).
    ServeCache,
}

const SUBSYSTEMS: usize = 6;

impl Subsystem {
    #[inline]
    fn index(self) -> usize {
        match self {
            Subsystem::Bdd => 0,
            Subsystem::Sat => 1,
            Subsystem::ChiMemo => 2,
            Subsystem::Stripes => 3,
            Subsystem::Cone => 4,
            Subsystem::ServeCache => 5,
        }
    }
}

/// How close the metered total is to a given limit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Pressure {
    /// Below the soft watermark: business as usual.
    None,
    /// At or past the soft watermark (7/8 of the limit): reclaim in
    /// place, keep going.
    Soft,
    /// At or past the limit: stop cooperatively with `MemoryOut`.
    Hard,
}

/// The soft watermark for `limit`: 7/8 of it, so reclamation gets a
/// head start of one eighth of the budget before the hard stop.
#[inline]
pub fn soft_watermark(limit: u64) -> u64 {
    limit - limit / 8
}

/// Per-subsystem atomic byte accounts with peak tracking, summed into
/// a process-wide total. All operations are relaxed atomics — the
/// numbers govern and report, they do not synchronise.
#[derive(Debug)]
pub struct MemoryMeter {
    current: [AtomicU64; SUBSYSTEMS],
    peak: [AtomicU64; SUBSYSTEMS],
    total: AtomicU64,
    total_peak: AtomicU64,
}

impl Default for MemoryMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryMeter {
    /// A meter with every account at zero.
    pub const fn new() -> Self {
        MemoryMeter {
            current: [const { AtomicU64::new(0) }; SUBSYSTEMS],
            peak: [const { AtomicU64::new(0) }; SUBSYSTEMS],
            total: AtomicU64::new(0),
            total_peak: AtomicU64::new(0),
        }
    }

    /// Adds `bytes` to `sub`'s account (and the total), updating peaks.
    pub fn charge(&self, sub: Subsystem, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let i = sub.index();
        let cur = self.current[i].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak[i].fetch_max(cur, Ordering::Relaxed);
        let tot = self.total.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.total_peak.fetch_max(tot, Ordering::Relaxed);
    }

    /// Returns `bytes` to the meter. Saturates at zero so a release
    /// after a reset cannot wrap the counters.
    pub fn release(&self, sub: Subsystem, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let i = sub.index();
        saturating_sub(&self.current[i], bytes);
        saturating_sub(&self.total, bytes);
    }

    /// Re-states one owner's charge against `sub`: `charged` is the
    /// bytes this owner last reported, `now` its fresh estimate. The
    /// delta is applied and `charged` updated — the pattern every
    /// instrumented allocator uses from its amortized poll point.
    pub fn restate(&self, sub: Subsystem, charged: &mut u64, now: u64) {
        if now > *charged {
            self.charge(sub, now - *charged);
        } else {
            self.release(sub, *charged - now);
        }
        *charged = now;
    }

    /// Bytes currently charged to `sub`.
    pub fn current(&self, sub: Subsystem) -> u64 {
        self.current[sub.index()].load(Ordering::Relaxed)
    }

    /// High-water mark of `sub`'s account.
    pub fn peak(&self, sub: Subsystem) -> u64 {
        self.peak[sub.index()].load(Ordering::Relaxed)
    }

    /// Bytes currently charged across every account.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// High-water mark of the total.
    pub fn total_peak(&self) -> u64 {
        self.total_peak.load(Ordering::Relaxed)
    }

    /// Resets every peak to its account's current value. Single-run
    /// harnesses (the bench tables) call this between rows so each
    /// row's `peak_mem` is its own.
    pub fn reset_peaks(&self) {
        for i in 0..SUBSYSTEMS {
            self.peak[i].store(self.current[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.total_peak
            .store(self.total.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Pressure of the metered total against `limit`. Consults the
    /// `mem::pressure` failpoint first (`exhaust` → hard, `err` →
    /// soft), so chaos schedules can synthesise pressure at any level
    /// of real usage.
    pub fn pressure(&self, limit: u64) -> Pressure {
        match crate::failpoint::eval("mem::pressure") {
            Some(crate::failpoint::Outcome::Exhausted) => return Pressure::Hard,
            Some(crate::failpoint::Outcome::ReturnError) => return Pressure::Soft,
            None => {}
        }
        let total = self.total();
        if total >= limit {
            Pressure::Hard
        } else if total >= soft_watermark(limit) {
            Pressure::Soft
        } else {
            Pressure::None
        }
    }
}

fn saturating_sub(counter: &AtomicU64, bytes: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(bytes);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The process-wide meter every instrumented subsystem reports to.
pub fn global() -> &'static MemoryMeter {
    static METER: MemoryMeter = MemoryMeter::new();
    &METER
}

/// RAII charge: bytes charged on construction, released on drop. For
/// owners whose footprint is fixed at creation (cone slices, cache
/// entries held across a scope).
#[derive(Debug)]
pub struct ScopedCharge {
    sub: Subsystem,
    bytes: u64,
}

impl ScopedCharge {
    /// Charges `bytes` to `sub` on the global meter.
    pub fn new(sub: Subsystem, bytes: u64) -> ScopedCharge {
        global().charge(sub, bytes);
        ScopedCharge { sub, bytes }
    }

    /// The charged byte count.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for ScopedCharge {
    fn drop(&mut self) {
        global().release(self.sub, self.bytes);
    }
}

/// Parses a human-unit byte count: plain digits, or digits with a
/// `K`/`M`/`G` suffix (powers of 1024, case-insensitive, optional
/// trailing `B` / `iB`): `65536`, `64K`, `64M`, `1G`, `512MiB`.
pub fn parse_bytes(text: &str) -> Result<u64, String> {
    let s = text.trim();
    if s.is_empty() {
        return Err("empty byte count".into());
    }
    let digits_end = s
        .char_indices()
        .find(|&(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (digits, suffix) = s.split_at(digits_end);
    if digits.is_empty() {
        return Err(format!("bad byte count {text:?}: no leading digits"));
    }
    let value: u64 = digits
        .parse()
        .map_err(|e| format!("bad byte count {text:?}: {e}"))?;
    let shift = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 0,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        other => {
            return Err(format!(
                "bad byte count {text:?}: unknown unit {other:?} (use K, M or G)"
            ))
        }
    };
    value
        .checked_shl(shift)
        .filter(|_| value.leading_zeros() >= shift)
        .ok_or_else(|| format!("byte count {text:?} overflows u64"))
}

/// Renders a byte count for operator messages: exact multiples of a
/// unit print as `64M`; everything else as plain bytes.
pub fn format_bytes(bytes: u64) -> String {
    for (shift, unit) in [(30u32, "G"), (20, "M"), (10, "K")] {
        let step = 1u64 << shift;
        if bytes >= step && bytes.is_multiple_of(step) {
            return format!("{}{}", bytes >> shift, unit);
        }
    }
    format!("{bytes}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit tests use a private meter so parallel tests sharing the
    /// global never interfere.
    fn meter() -> MemoryMeter {
        MemoryMeter::new()
    }

    #[test]
    fn charge_release_and_peaks() {
        let m = meter();
        m.charge(Subsystem::Bdd, 100);
        m.charge(Subsystem::Sat, 50);
        assert_eq!(m.current(Subsystem::Bdd), 100);
        assert_eq!(m.total(), 150);
        assert_eq!(m.total_peak(), 150);
        m.release(Subsystem::Bdd, 100);
        assert_eq!(m.current(Subsystem::Bdd), 0);
        assert_eq!(m.total(), 50);
        assert_eq!(m.total_peak(), 150, "peak survives release");
        assert_eq!(m.peak(Subsystem::Bdd), 100);
    }

    #[test]
    fn release_saturates_at_zero() {
        let m = meter();
        m.charge(Subsystem::Stripes, 10);
        m.release(Subsystem::Stripes, 1000);
        assert_eq!(m.current(Subsystem::Stripes), 0);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn restate_applies_the_delta_both_ways() {
        let m = meter();
        let mut charged = 0u64;
        m.restate(Subsystem::ChiMemo, &mut charged, 500);
        assert_eq!((charged, m.total()), (500, 500));
        m.restate(Subsystem::ChiMemo, &mut charged, 200);
        assert_eq!((charged, m.total()), (200, 200));
        m.restate(Subsystem::ChiMemo, &mut charged, 200);
        assert_eq!((charged, m.total()), (200, 200));
    }

    #[test]
    fn pressure_thresholds() {
        let m = meter();
        assert_eq!(m.pressure(1000), Pressure::None);
        m.charge(Subsystem::Bdd, 875); // exactly the 7/8 watermark
        assert_eq!(m.pressure(1000), Pressure::Soft);
        m.charge(Subsystem::Bdd, 125);
        assert_eq!(m.pressure(1000), Pressure::Hard);
        assert_eq!(soft_watermark(1000), 875);
    }

    #[test]
    fn reset_peaks_rebaselines() {
        let m = meter();
        m.charge(Subsystem::Cone, 300);
        m.release(Subsystem::Cone, 300);
        assert_eq!(m.total_peak(), 300);
        m.reset_peaks();
        assert_eq!(m.total_peak(), 0);
        assert_eq!(m.peak(Subsystem::Cone), 0);
    }

    #[test]
    fn scoped_charge_releases_on_drop() {
        let before = global().current(Subsystem::Cone);
        {
            let c = ScopedCharge::new(Subsystem::Cone, 4096);
            assert_eq!(c.bytes(), 4096);
            assert!(global().current(Subsystem::Cone) >= before + 4096);
        }
        // Other tests may charge concurrently; ours must be gone.
        assert!(global().peak(Subsystem::Cone) >= before + 4096);
    }

    #[test]
    fn parse_human_units() {
        assert_eq!(parse_bytes("1024"), Ok(1024));
        assert_eq!(parse_bytes("64K"), Ok(64 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("1G"), Ok(1 << 30));
        assert_eq!(parse_bytes("2g"), Ok(2 << 30));
        assert_eq!(parse_bytes(" 512MiB "), Ok(512 << 20));
        assert_eq!(parse_bytes("8kb"), Ok(8 << 10));
        for bad in ["", "M", "12X", "1.5G", "-1K", "99999999999999999999"] {
            assert!(parse_bytes(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn format_round_trips_exact_units() {
        assert_eq!(format_bytes(64 << 20), "64M");
        assert_eq!(format_bytes(1 << 30), "1G");
        assert_eq!(format_bytes(3 << 10), "3K");
        assert_eq!(format_bytes(1000), "1000");
        assert_eq!(parse_bytes(&format_bytes(48 << 20)), Ok(48 << 20));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn pressure_failpoint_synthesises_both_levels() {
        let _s = crate::failpoint::FailScenario::setup("mem::pressure=exhaust@1,err@2", 0);
        let m = meter(); // empty: real pressure would be None
        assert_eq!(m.pressure(u64::MAX), Pressure::Hard);
        assert_eq!(m.pressure(u64::MAX), Pressure::Soft);
        assert_eq!(m.pressure(u64::MAX), Pressure::None);
    }
}
