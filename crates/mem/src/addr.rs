//! Typed virtual and physical addresses.
//!
//! Keeping the two address spaces as distinct newtypes prevents the classic
//! simulator bug of indexing a physically-indexed cache with a virtual
//! address: the only conversion path is through the MMU.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

macro_rules! define_addr {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            #[must_use]
            pub const fn new(raw: u64) -> $name {
                $name(raw)
            }

            /// The raw 64-bit value.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Rounds up to a multiple of `alignment`.
            ///
            /// # Panics
            ///
            /// Panics if `alignment` is not a power of two, or on overflow.
            #[must_use]
            pub fn align_up(self, alignment: u64) -> $name {
                assert!(alignment.is_power_of_two(), "alignment must be a power of two");
                $name(
                    self.0
                        .checked_add(alignment - 1)
                        .expect("address overflow in align_up")
                        & !(alignment - 1),
                )
            }

            /// Whether the address is a multiple of `alignment`.
            ///
            /// # Panics
            ///
            /// Panics if `alignment` is not a power of two.
            #[must_use]
            pub fn is_aligned(self, alignment: u64) -> bool {
                assert!(alignment.is_power_of_two(), "alignment must be a power of two");
                self.0 & (alignment - 1) == 0
            }

            /// Byte offset within an `alignment`-sized block.
            ///
            /// # Panics
            ///
            /// Panics if `alignment` is not a power of two.
            #[must_use]
            pub fn offset_in(self, alignment: u64) -> u64 {
                assert!(alignment.is_power_of_two(), "alignment must be a power of two");
                self.0 & (alignment - 1)
            }

            /// Checked addition of a byte offset.
            #[must_use]
            pub fn checked_add(self, bytes: u64) -> Option<$name> {
                self.0.checked_add(bytes).map($name)
            }
        }

        impl Add<u64> for $name {
            type Output = $name;

            fn add(self, bytes: u64) -> $name {
                $name(self.0 + bytes)
            }
        }

        impl Sub<u64> for $name {
            type Output = $name;

            fn sub(self, bytes: u64) -> $name {
                $name(self.0 - bytes)
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;

            fn sub(self, other: $name) -> u64 {
                self.0 - other.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> $name {
                $name(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }
    };
}

define_addr! {
    /// A virtual address as seen by the program (pre-translation).
    ///
    /// # Example
    ///
    /// ```
    /// use trrip_mem::VirtAddr;
    ///
    /// let va = VirtAddr::new(0x1234);
    /// assert_eq!(va.align_up(0x1000).raw(), 0x2000);
    /// assert_eq!(va.offset_in(0x1000), 0x234);
    /// ```
    VirtAddr
}

define_addr! {
    /// A physical address produced by the MMU, used to index caches.
    ///
    /// # Example
    ///
    /// ```
    /// use trrip_mem::PhysAddr;
    ///
    /// let pa = PhysAddr::new(0x8000_0040);
    /// assert!(pa.is_aligned(64));
    /// ```
    PhysAddr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_rounds_to_the_next_multiple() {
        let a = VirtAddr::new(0x1fff);
        assert_eq!(a.align_up(0x1000).raw(), 0x2000);
        let b = VirtAddr::new(0x2000);
        assert_eq!(b.align_up(0x1000).raw(), 0x2000);
    }

    #[test]
    fn offset_and_alignment_checks() {
        let a = PhysAddr::new(0x1040);
        assert!(a.is_aligned(64));
        assert!(!a.is_aligned(128));
        assert_eq!(a.offset_in(0x1000), 0x40);
    }

    #[test]
    fn arithmetic() {
        let a = VirtAddr::new(100);
        assert_eq!((a + 28).raw(), 128);
        assert_eq!((a + 28) - a, 28);
        assert_eq!(((a + 28) - 28).raw(), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_alignment_panics() {
        let _ = VirtAddr::new(0).align_up(3);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(VirtAddr::new(u64::MAX).checked_add(1).is_none());
        assert_eq!(VirtAddr::new(1).checked_add(1), Some(VirtAddr::new(2)));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VirtAddr::new(0xbeef).to_string(), "0xbeef");
        assert_eq!(format!("{:x}", PhysAddr::new(0xABC)), "abc");
        assert_eq!(format!("{:X}", PhysAddr::new(0xabc)), "ABC");
    }
}
