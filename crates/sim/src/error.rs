//! The errors of the simulator stack.
//!
//! [`crate::LaunchError`] covers launch-time rejection and per-launch
//! degradation (watchdog aborts, caught kernel panics). [`CudaError`]
//! covers the host-runtime device layer (allocation, transfers, constant
//! uploads); `g80-cuda` re-exports it.

/// Typed failures of the host-runtime device layer (`g80-cuda`). The
/// legacy infallible APIs (`Device::alloc` etc.) panic with the same
/// messages they always did; the `try_*` twins return these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CudaError {
    /// Allocation exceeds remaining device memory.
    OutOfMemory {
        /// Bytes requested.
        want: u32,
        /// Byte offset the allocation would start at.
        at: u32,
        /// Total device memory in bytes.
        have: u32,
    },
    /// A host-to-device copy is larger than the destination buffer.
    OversizedCopy {
        /// Elements in the host slice.
        len: usize,
        /// Capacity of the device buffer in elements.
        capacity: usize,
    },
    /// A constant-bank upload exceeds the bank size.
    ConstOverflow {
        /// Bytes in the upload.
        want: usize,
        /// Constant bank capacity in bytes.
        have: usize,
    },
}

impl std::fmt::Display for CudaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CudaError::OutOfMemory { want, at, have } => write!(
                f,
                "OutOfMemory: device out of memory: want {want} B at {at}, have {have} B"
            ),
            CudaError::OversizedCopy { len, capacity } => write!(
                f,
                "OversizedCopy: h2d copy larger than buffer ({len} > {capacity} elements)"
            ),
            CudaError::ConstOverflow { want, have } => write!(
                f,
                "ConstOverflow: constant bank overflow ({want} B > {have} B)"
            ),
        }
    }
}

impl std::error::Error for CudaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_include_variant_names() {
        let e = CudaError::OutOfMemory {
            want: 4000,
            at: 0,
            have: 1024,
        };
        assert!(e.to_string().starts_with("OutOfMemory:"));
        assert!(e.to_string().contains("device out of memory"));
        let e = CudaError::ConstOverflow {
            want: 80000,
            have: 65536,
        };
        assert!(e.to_string().contains("constant bank overflow"));
    }
}
