//! Dense identifier newtypes shared across the workspace.
//!
//! All identifiers are thin wrappers over `u32` so they can index `Vec`-based
//! side tables without hashing. They deliberately do not implement arithmetic;
//! conversion to `usize` goes through [`FunctionId::index`] and friends.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// The prefix of the identifier's `Display` and `Debug` forms,
            /// which follow it with the raw index.
            pub const TAG: &'static str = $tag;

            /// Creates an identifier from its dense index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw dense index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize` suitable for indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_newtype!(
    /// Identifies a function (a call-graph node).
    ///
    /// In the program model every function of the main executable and of all
    /// shared libraries has a unique, dense `FunctionId`; the dynamic call
    /// graph only materialises nodes for functions observed at runtime.
    FunctionId,
    "f"
);

id_newtype!(
    /// Identifies a static call site (the address of a CALL instruction in
    /// the paper; a unique index of a `call` op in the program model).
    ///
    /// One call site can give rise to several call edges when it dispatches
    /// indirectly.
    CallSiteId,
    "cs"
);

id_newtype!(
    /// Identifies a call edge `(caller, call site, callee)` inside one
    /// [`crate::CallGraph`].
    EdgeId,
    "e"
);

/// The global re-encoding timestamp (`gTimeStamp` in the paper, §4.1).
///
/// Every adaptive re-encoding increments the timestamp; collected context
/// samples are tagged with it so that they can be decoded against the decode
/// dictionary that was current when they were recorded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimeStamp(u32);

impl TimeStamp {
    /// The timestamp before any re-encoding has happened.
    pub const ZERO: TimeStamp = TimeStamp(0);

    /// Creates a timestamp from its raw counter value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw counter value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the timestamp as an index into a dictionary store.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the timestamp after one more re-encoding.
    #[inline]
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl std::fmt::Display for TimeStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gTS{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_id_roundtrip() {
        let id = FunctionId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(CallSiteId::new(1) < CallSiteId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(1));
    }

    #[test]
    fn debug_and_display_formats_are_tagged() {
        assert_eq!(format!("{:?}", FunctionId::new(3)), "f3");
        assert_eq!(format!("{}", CallSiteId::new(7)), "cs7");
        assert_eq!(format!("{}", EdgeId::new(9)), "e9");
        assert_eq!(format!("{}", TimeStamp::new(2)), "gTS2");
    }

    #[test]
    fn timestamp_next_increments() {
        let t = TimeStamp::ZERO;
        assert_eq!(t.next().raw(), 1);
        assert_eq!(t.next().next().index(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(FunctionId::default().raw(), 0);
        assert_eq!(TimeStamp::default(), TimeStamp::ZERO);
    }
}
