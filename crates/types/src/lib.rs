//! Common vocabulary types for the CLIP many-core simulation workspace.
//!
//! This crate defines the identifiers (addresses, instruction pointers,
//! transaction ids), the service levels and scheduling priorities of
//! memory traffic, and the configuration structs shared by every other
//! crate in the workspace. It deliberately contains no policy — only
//! data.
//!
//! # Examples
//!
//! ```
//! use clip_types::{Addr, LINE_BYTES};
//!
//! let a = Addr::new(0x1234_5678);
//! assert_eq!(a.line().byte_addr().raw() % LINE_BYTES as u64, 0);
//! assert_eq!(a.line_offset(), 0x78 % 64);
//! ```

pub mod check;
pub mod config;
pub mod knob;
pub mod request;
pub mod rng;

pub use check::{CheckLevel, SimError, SimErrorKind};
pub use config::{
    CacheLevelConfig, CoreConfig, DramConfig, DramKind, NocConfig, PrefetcherKind, ReplacementKind,
    SimConfig, SimConfigBuilder,
};
pub use request::{MemLevel, Priority, ReqId};
pub use rng::SimRng;

use std::fmt;

/// Number of bytes in a cache line across the entire hierarchy.
pub const LINE_BYTES: usize = 64;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// Number of bytes in a (small) virtual page.
pub const PAGE_BYTES: usize = 4096;

/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;

/// A simulation timestamp in core clock cycles (4 GHz in the baseline).
pub type Cycle = u64;

/// Upper bound on concurrently running prefetch engines inside one
/// composite prefetcher. Engine tags on prefetch candidates, the per-engine
/// accounting in CLIP's utility buffer, and the tile's per-engine queue
/// balances all size their fixed arrays with this, so reports stay `Copy`.
/// Single-engine prefetchers always use engine 0.
pub const MAX_PF_ENGINES: usize = 4;

/// A byte-granular virtual address.
///
/// The simulator does not model paging faults; virtual addresses are used
/// directly for cache indexing (physically-indexed behaviour is emulated by
/// the per-core address-space offset applied in `clip-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this byte belongs to.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the page this byte belongs to.
    #[inline]
    pub const fn page(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Returns the byte offset within the cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES as u64 - 1)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line-granular address (byte address shifted right by
/// [`LINE_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line.
    #[inline]
    pub const fn byte_addr(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// Returns the page number of the line.
    #[inline]
    pub const fn page(self) -> u64 {
        self.0 >> (PAGE_SHIFT - LINE_SHIFT)
    }

    /// Returns the line offset within its 4 KiB page (0..64).
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & ((PAGE_BYTES as u64 >> LINE_SHIFT) - 1)
    }

    /// Returns the line shifted by a signed delta (in lines), saturating at
    /// zero.
    #[inline]
    pub fn offset_by(self, delta: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add_signed(delta))
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0 << LINE_SHIFT)
    }
}

/// An instruction pointer (program counter) identifying a static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(u64);

impl Ip {
    /// Creates an instruction pointer from its raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Ip(raw)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns a small tag of `bits` low-order (folded) bits, as used by the
    /// hardware tables in the paper (6-bit IP tags).
    #[inline]
    pub fn tag(self, bits: u32) -> u64 {
        debug_assert!(bits > 0 && bits <= 32);
        let mask = (1u64 << bits) - 1;
        // Hash the IP so that tags depend on all bits, not just the low ones.
        hash64(self.0) & mask
    }
}

impl From<u64> for Ip {
    fn from(raw: u64) -> Self {
        Ip(raw)
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip:{:#x}", self.0)
    }
}

/// A fixed-width saturating counter, the workhorse of every predictor table
/// in the paper (e.g. CLIP's 3-bit criticality confidence counters).
///
/// # Examples
///
/// ```
/// use clip_types::SatCounter;
///
/// let mut c = SatCounter::new(3); // 3-bit, initialised to midpoint (4)
/// assert!(c.msb_set());
/// c.dec(); c.dec(); c.dec(); c.dec(); c.dec();
/// assert_eq!(c.value(), 0);
/// assert!(!c.msb_set());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    bits: u8,
}

impl SatCounter {
    /// Creates a `bits`-wide counter initialised to its midpoint
    /// (2^(bits-1)), as the paper specifies for the criticality predictor.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 7.
    pub fn new(bits: u8) -> Self {
        assert!(bits > 0 && bits <= 7, "counter width must be in 1..=7");
        SatCounter {
            value: 1 << (bits - 1),
            bits,
        }
    }

    /// Maximum representable value (2^bits - 1).
    #[inline]
    pub fn max(self) -> u8 {
        (1u8 << self.bits) - 1
    }

    /// Current value.
    #[inline]
    pub fn value(self) -> u8 {
        self.value
    }

    /// Counter width in bits.
    #[inline]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Saturating increment.
    #[inline]
    pub fn inc(&mut self) {
        if self.value < self.max() {
            self.value += 1;
        }
    }

    /// Saturating decrement.
    #[inline]
    pub fn dec(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// True when the most significant bit is set — the paper's "predict
    /// critical" condition.
    #[inline]
    pub fn msb_set(self) -> bool {
        self.value >= (1 << (self.bits - 1))
    }

    /// Resets to the midpoint.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 1 << (self.bits - 1);
    }
}

impl Default for SatCounter {
    fn default() -> Self {
        SatCounter::new(3)
    }
}

/// A fixed-length shift-register history of single-bit outcomes, used for
/// the 32-bit global branch history and 32-bit global criticality history
/// that feed CLIP's critical signature.
///
/// # Examples
///
/// ```
/// use clip_types::BitHistory;
///
/// let mut h = BitHistory::new(32);
/// h.push(true);
/// h.push(false);
/// h.push(true);
/// assert_eq!(h.bits() & 0b111, 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitHistory {
    bits: u64,
    len: u8,
}

impl BitHistory {
    /// Creates a history of `len` bits (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than 64.
    pub fn new(len: u8) -> Self {
        assert!((1..=64).contains(&len), "history length must be in 1..=64");
        BitHistory { bits: 0, len }
    }

    /// Shifts a new outcome into the history (newest at bit 0).
    #[inline]
    pub fn push(&mut self, outcome: bool) {
        let mask = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        self.bits = ((self.bits << 1) | outcome as u64) & mask;
    }

    /// Returns the packed history bits (newest outcome at bit 0).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Returns the configured history length.
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// True if no outcome has been recorded and the register is all-zero.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Clears the history register.
    #[inline]
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

/// Mixes a 64-bit value (xorshift-multiply), used by the table-index hash
/// functions throughout the workspace. Deterministic and cheap.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    // splitmix64 finalizer — excellent avalanche, no secret state.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Incremental FNV-1a (64-bit) hasher used by the state-fingerprint
/// auditors: each component folds its architectural and queue state into
/// one `u64` per cadence window. Order-sensitive by design — callers must
/// fold unordered collections (e.g. `HashMap` contents) in a sorted,
/// deterministic order or the fingerprint is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds one 64-bit word, byte by byte (little-endian).
    #[inline]
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a byte string, byte by byte. The state is `Copy`, so a
    /// shared prefix can be folded once and continued per suffix.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `usize` (as u64, platform-independent for values < 2^64).
    #[inline]
    pub fn write_usize(&mut self, x: usize) -> &mut Self {
        self.write_u64(x as u64)
    }

    /// Folds a boolean as a full word so adjacent flags cannot alias.
    #[inline]
    pub fn write_bool(&mut self, x: bool) -> &mut Self {
        self.write_u64(u64::from(x))
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_deterministic_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2).write_bool(true);
        let mut b = Fnv64::new();
        b.write_u64(1).write_u64(2).write_bool(true);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(2).write_u64(1).write_bool(true);
        assert_ne!(a.finish(), c.finish(), "order must matter");
        // Known FNV-1a vector: hashing nothing yields the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Fnv64::new().write_bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        // A folded prefix continues exactly as the whole string would.
        let mut continued = *Fnv64::new().write_bytes(b"cfg\x01scheme\x01");
        continued.write_bytes(b"mix");
        let mut whole = Fnv64::new();
        whole.write_bytes(b"cfg\x01scheme\x01mix");
        assert_eq!(continued.finish(), whole.finish());
    }

    #[test]
    fn addr_line_and_offset_roundtrip() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.line().byte_addr().raw(), 0xdead_beef & !63);
        assert_eq!(a.line_offset(), 0xdead_beef % 64);
        assert_eq!(a.page(), 0xdead_beef >> 12);
    }

    #[test]
    fn line_addr_page_offset_is_within_page() {
        for raw in [0u64, 1, 63, 64, 65, 1 << 20, u64::MAX >> 7] {
            let l = LineAddr::new(raw);
            assert!(l.page_offset() < 64, "line offset in 4K page is 0..64");
            assert_eq!(l.page(), l.byte_addr().page());
        }
    }

    #[test]
    fn line_addr_offset_by_moves_by_delta() {
        let l = LineAddr::new(100);
        assert_eq!(l.offset_by(5).raw(), 105);
        assert_eq!(l.offset_by(-5).raw(), 95);
    }

    #[test]
    fn ip_tag_is_masked_and_stable() {
        let ip = Ip::new(0x0040_1a2b_3c4d);
        let t = ip.tag(6);
        assert!(t < 64);
        assert_eq!(t, ip.tag(6), "tag must be deterministic");
    }

    #[test]
    fn ip_tag_differs_for_high_bit_changes() {
        // A plain low-bits mask would alias these; folding should not.
        let a = Ip::new(0x1000_0000_0042);
        let b = Ip::new(0x2000_0000_0042);
        // Not guaranteed for every pair, but this pair is chosen to differ.
        assert_ne!(a.tag(6), b.tag(6));
    }

    #[test]
    fn sat_counter_starts_at_midpoint_with_msb_set() {
        for bits in 1..=7u8 {
            let c = SatCounter::new(bits);
            assert_eq!(c.value(), 1 << (bits - 1));
            assert!(c.msb_set());
        }
    }

    #[test]
    fn sat_counter_saturates_both_ends() {
        let mut c = SatCounter::new(2);
        for _ in 0..10 {
            c.inc();
        }
        assert_eq!(c.value(), 3);
        for _ in 0..10 {
            c.dec();
        }
        assert_eq!(c.value(), 0);
        assert!(!c.msb_set());
    }

    #[test]
    #[should_panic]
    fn sat_counter_rejects_zero_width() {
        let _ = SatCounter::new(0);
    }

    #[test]
    fn bit_history_keeps_only_len_bits() {
        let mut h = BitHistory::new(4);
        for _ in 0..100 {
            h.push(true);
        }
        assert_eq!(h.bits(), 0b1111);
    }

    #[test]
    fn bit_history_order_is_newest_at_lsb() {
        let mut h = BitHistory::new(8);
        h.push(true);
        h.push(false);
        assert_eq!(h.bits(), 0b10);
    }

    #[test]
    fn bit_history_full_width_works() {
        let mut h = BitHistory::new(64);
        for _ in 0..70 {
            h.push(true);
        }
        assert_eq!(h.bits(), u64::MAX);
    }

    #[test]
    fn hash64_is_deterministic_and_spreads() {
        assert_eq!(hash64(42), hash64(42));
        // Nearby inputs should map far apart (avalanche sanity check).
        let d = hash64(1) ^ hash64(2);
        assert!(d.count_ones() > 10);
    }
}
