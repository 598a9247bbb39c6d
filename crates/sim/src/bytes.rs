//! Shared, immutable byte buffers.
//!
//! A CAB keeps one copy of a message in its data memory; its DMA
//! engines and its checksum unit read that copy in place (§5.1). The
//! model does the same with [`Bytes`]: a payload is made once, by the
//! application or the workload engine, and every layer below — the
//! transport's retransmission queue, the packet on the fiber, the
//! message in the mailbox — holds a slice of it. Cloning or slicing
//! bumps a reference count; no byte is copied.

use core::fmt;
use core::ops::{Deref, Range};
use std::sync::Arc;

/// A reference-counted, immutable slice of a shared byte buffer: an
/// `Arc<[u8]>` plus the range of it this handle covers.
///
/// # Examples
///
/// ```
/// use nectar_sim::bytes::Bytes;
///
/// let whole = Bytes::from(vec![1, 2, 3, 4, 5]);
/// let tail = whole.slice(2..5);
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// // A slice points into the same buffer: nothing was copied.
/// assert_eq!(tail.as_ptr(), whole[2..].as_ptr());
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Arc::<[u8]>::from([]))
    }

    /// `len` zero bytes in one allocation, written once.
    pub fn zeroed(len: usize) -> Bytes {
        Bytes::from(std::iter::repeat_n(0u8, len).collect::<Arc<[u8]>>())
    }

    /// The bytes in `range` (relative to this slice), sharing this
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// The slice's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }

    /// Length in bytes, read off the range.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` for an empty slice.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Takes the buffer as it is: no copy.
impl From<Arc<[u8]>> for Bytes {
    fn from(buf: Arc<[u8]>) -> Bytes {
        let end = u32::try_from(buf.len()).expect("shared buffers stay below 4 GiB");
        Bytes { buf, start: 0, end }
    }
}

/// Copies the bytes once into a shared buffer.
impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(data))
    }
}

/// Copies the bytes once into a shared buffer.
impl From<&Vec<u8>> for Bytes {
    fn from(data: &Vec<u8>) -> Bytes {
        Bytes::from(data.as_slice())
    }
}

/// Copies the bytes once into a shared buffer.
impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(data: &[u8; N]) -> Bytes {
        Bytes::from(data.as_slice())
    }
}

/// Moves the bytes into a shared buffer.
impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(data))
    }
}

/// Moves the bytes into a shared buffer.
impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(data: [u8; N]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(data))
    }
}

/// Equal when the bytes are, wherever they live.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl core::hash::Hash for Bytes {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_slices_share_the_buffer() {
        let b = Bytes::from(vec![7u8; 64]);
        let c = b.clone();
        assert_eq!(c.as_ptr(), b.as_ptr());
        let s = b.slice(10..20).slice(5..10);
        assert_eq!(s.len(), 5);
        assert_eq!(s.as_ptr(), b[15..].as_ptr());
    }

    #[test]
    fn zeroed_is_zero_and_equality_is_by_content() {
        let z = Bytes::zeroed(1000);
        assert_eq!(z.len(), 1000);
        assert!(z.iter().all(|&b| b == 0));
        assert_eq!(z.slice(0..3), Bytes::from([0u8, 0, 0]));
        assert_eq!(Bytes::new(), Bytes::default());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slicing_past_the_end_panics() {
        let _ = Bytes::from(vec![1u8; 4]).slice(2..5);
    }
}
