//! # xrta-robust — robustness primitives for the workspace
//!
//! Small, dependency-free building blocks that the analysis crates,
//! the batch runner and the serve daemon share:
//!
//! * [`failpoint`] — deterministic fault injection behind named sites
//!   (`bdd::mk`, `sat::conflict`, …). Zero-cost unless the
//!   `failpoints` cargo feature is enabled *and* a schedule is armed.
//! * [`fsio`] — durable file io: atomic temp+fsync+rename writes and a
//!   table-driven CRC-32 used to checksum journal records.
//! * [`journal`] — an append-only JSONL journal with a checksum per
//!   record and truncated-tail tolerance on load, so a killed process
//!   can reconstruct exactly what it had durably recorded.
//! * [`backoff`] — capped exponential retry backoff with deterministic
//!   jitter drawn from [`xrta_rng`].
//! * [`fnv`] — FNV-1a in 64 and 128 bits, the content hash behind
//!   cache keys, ring points, cone fingerprints and failpoint dice.
//! * [`jsonflat`] — the one-level JSON record dialect every wire and
//!   disk format in the workspace speaks (journal records, batch
//!   reports, the serve protocol).
//! * [`mem`] — byte-accurate memory accounting: per-subsystem atomic
//!   accounts on a process-wide [`mem::MemoryMeter`], soft/hard
//!   watermark pressure, human-unit parsing for `--mem-limit`.
//!
//! The crate sits below every analysis layer (its only dependency is
//! the workspace RNG), so `xrta-bdd`/`xrta-sat` can host failpoint
//! sites without dependency cycles; `xrta-core` re-exports
//! [`failpoint`] as `core::failpoint` for discoverability.

pub mod backoff;
pub mod failpoint;
pub mod fnv;
pub mod fsio;
pub mod journal;
pub mod jsonflat;
pub mod mem;
