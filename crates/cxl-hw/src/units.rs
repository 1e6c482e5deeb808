//! Strongly-typed units used throughout the hardware model.
//!
//! The paper's hardware layer is parameterized in 1 GiB slices (quoted as
//! "1 GB" in the paper; this reproduction uses binary GiB throughout), hosts
//! and EMCs. Newtypes keep these from being mixed up
//! (C-NEWTYPE) and give each a small, focused API.

use std::fmt;

/// A byte quantity.
///
/// Pool capacity is always managed in whole gibibytes (1 GiB slices — the
/// paper's "1 GB"), but VM
/// requests and telemetry express memory in megabytes, so `Bytes` keeps full
/// resolution and offers lossless constructors for both.
///
/// ```
/// use cxl_hw::units::Bytes;
/// let cap = Bytes::from_gib(2);
/// assert_eq!(cap.as_mib(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// One gibibyte, the slice granularity used by the Pond EMC.
    pub const GIB: Bytes = Bytes(1 << 30);

    /// Creates a quantity from raw bytes.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a quantity from mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib << 20)
    }

    /// Creates a quantity from gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib << 30)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whole mebibytes (truncating).
    pub const fn as_mib(self) -> u64 {
        self.0 >> 20
    }

    /// Whole gibibytes (truncating).
    pub const fn as_gib(self) -> u64 {
        self.0 >> 30
    }

    /// Gibibytes as a floating-point value (no truncation).
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Number of whole 1 GiB slices needed to hold this quantity (rounding up).
    ///
    /// ```
    /// use cxl_hw::units::Bytes;
    /// assert_eq!(Bytes::from_mib(1).slices_ceil(), 1);
    /// assert_eq!(Bytes::from_gib(3).slices_ceil(), 3);
    /// assert_eq!(Bytes::ZERO.slices_ceil(), 0);
    /// ```
    pub const fn slices_ceil(self) -> u64 {
        self.0.div_ceil(1 << 30)
    }

    /// Number of whole 1 GiB slices fully covered by this quantity (rounding down).
    pub const fn slices_floor(self) -> u64 {
        self.0 >> 30
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Returns true when the quantity is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the quantity by a non-negative ratio, rounding down.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is negative or not finite.
    pub fn scaled(self, ratio: f64) -> Bytes {
        assert!(ratio.is_finite() && ratio >= 0.0, "ratio must be finite and non-negative");
        Bytes((self.0 as f64 * ratio) as u64)
    }
}

impl std::ops::Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl std::ops::SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= (1 << 30) && self.0 % (1 << 30) == 0 {
            write!(f, "{} GiB", self.as_gib())
        } else if self.0 >= (1 << 20) {
            write!(f, "{} MiB", self.as_mib())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Identifier of a host (a hypervisor instance / CPU socket pair) attached to a pool.
///
/// The paper's EMC tracks up to 64 hosts with a 6-bit owner field per slice.
/// This model does not enforce that width: the cross-pod ports of a
/// borrowing fleet take ids up to 2 × hosts − 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Identifier of an External Memory Controller within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EmcId(pub u16);

impl fmt::Display for EmcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "emc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_round_trip() {
        assert_eq!(Bytes::from_gib(4).as_gib(), 4);
        assert_eq!(Bytes::from_mib(512).as_mib(), 512);
        assert_eq!(Bytes::new(123).as_u64(), 123);
        assert_eq!(Bytes::GIB, Bytes::from_gib(1));
    }

    #[test]
    fn slices_ceil_rounds_up_partial_slices() {
        assert_eq!(Bytes::from_mib(1).slices_ceil(), 1);
        assert_eq!(Bytes::from_gib(1).slices_ceil(), 1);
        assert_eq!((Bytes::from_gib(1) + Bytes::from_mib(1)).slices_ceil(), 2);
        assert_eq!(Bytes::ZERO.slices_ceil(), 0);
    }

    #[test]
    fn slices_floor_truncates() {
        assert_eq!(Bytes::from_mib(1536).slices_floor(), 1);
        assert_eq!(Bytes::from_mib(512).slices_floor(), 0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Bytes::from_gib(2);
        let b = Bytes::from_gib(1);
        assert_eq!(a + b, Bytes::from_gib(3));
        assert_eq!(a - b, Bytes::from_gib(1));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        let total: Bytes = vec![a, b, b].into_iter().sum();
        assert_eq!(total, Bytes::from_gib(4));
    }

    #[test]
    fn scaled_applies_ratio() {
        assert_eq!(Bytes::from_gib(10).scaled(0.5), Bytes::from_gib(5));
        assert_eq!(Bytes::from_gib(10).scaled(0.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "ratio must be finite")]
    fn scaled_rejects_negative_ratio() {
        let _ = Bytes::from_gib(1).scaled(-1.0);
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(Bytes::from_gib(2).to_string(), "2 GiB");
        assert_eq!(Bytes::from_mib(3).to_string(), "3 MiB");
        assert_eq!(Bytes::new(100).to_string(), "100 B");
        // Non-integral GiB quantities fall back to MiB.
        assert_eq!((Bytes::from_gib(1) + Bytes::from_mib(1)).to_string(), "1025 MiB");
    }

    #[test]
    fn ids_display_and_index() {
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(EmcId(1).to_string(), "emc1");
    }
}
