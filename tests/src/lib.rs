//! Cross-crate integration tests for the Pond reproduction.
//!
//! The tests live in `tests/tests/`; this library holds what more than one
//! of them shares: [`heap`], the counting allocator of the heap tests.

pub mod heap;
