//! Shared, immutable byte buffers.
//!
//! A CAB keeps one copy of a message in its data memory; its DMA
//! engines and its checksum unit read that copy in place (§5.1). The
//! model does the same with [`Bytes`]: a payload is made once, by the
//! application or the workload engine, and every layer below — the
//! transport's retransmission queue, the packet on the fiber, the
//! message in the mailbox — holds a slice of it. Cloning or slicing
//! bumps a reference count; no byte is copied. What the checksum unit
//! derives from a buffer's bytes is kept beside them, once per buffer
//! ([`Bytes::sidecar`]).

use core::fmt;
use core::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// A reference-counted, immutable slice of a shared byte buffer: one
/// pointer to the buffer plus the range of it this handle covers.
///
/// Each buffer also has one sidecar slot, filled on first use by
/// [`Bytes::sidecar`] from the buffer's bytes. Since nothing writes a
/// buffer after it is made, whatever is derived from its bytes once
/// holds for every clone and slice of it for as long as it lives. The
/// CAB's checksum unit keeps its prefix sums there.
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
    buf: Arc<Buffer>,
    start: u32,
    end: u32,
}

// A handle rides in every packet frame and every queued send: one
// pointer and a 32-bit range.
const _: () = assert!(size_of::<Bytes>() == 16);

/// A shared buffer: its bytes, never written after construction, and
/// the sidecar derived from them.
struct Buffer {
    data: Vec<u8>,
    sidecar: OnceLock<Box<[[u8; 2]]>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// `len` zero bytes.
    pub fn zeroed(len: usize) -> Bytes {
        Bytes::from(vec![0u8; len])
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
        &self.buf.data[self.start as usize..self.end as usize]
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

    /// The whole buffer this slice points into, and the slice's range
    /// within it.
    #[inline]
    pub fn buffer(&self) -> (&[u8], Range<usize>) {
        (&self.buf.data, self.start as usize..self.end as usize)
    }

    /// The buffer's sidecar: `fill` over the whole buffer on the first
    /// call for this buffer, from any clone or slice of it, and the
    /// same entries on every call after. The slot is one per buffer,
    /// so every caller must pass the same `fill`; the CAB's checksum
    /// unit (`nectar_cab::checksum`) is the only one.
    #[inline]
    pub fn sidecar(&self, fill: fn(&[u8]) -> Box<[[u8; 2]]>) -> &[[u8; 2]] {
        self.buf.sidecar.get_or_init(|| fill(&self.buf.data))
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

/// Moves the bytes into a shared buffer: no copy.
impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = u32::try_from(data.len()).expect("shared buffers stay below 4 GiB");
        Bytes { buf: Arc::new(Buffer { data, sidecar: OnceLock::new() }), start: 0, end }
    }
}

/// Copies the bytes once into a shared buffer.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Bytes {
        Bytes::from(data.to_vec())
    }
}

/// Copies the bytes once into a shared buffer.
impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
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

/// Copies the bytes once into a shared buffer.
impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(data: [u8; N]) -> Bytes {
        Bytes::from(data.to_vec())
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
    fn a_vec_moves_in_and_the_sidecar_fills_once_per_buffer() {
        let data = vec![3u8; 300];
        let at = data.as_ptr();
        let b = Bytes::from(data);
        assert_eq!(b.as_ptr(), at, "the vector's bytes were copied");
        fn lengths(buf: &[u8]) -> Box<[[u8; 2]]> {
            vec![[buf.len() as u8, 0]].into()
        }
        fn never(_: &[u8]) -> Box<[[u8; 2]]> {
            unreachable!("the slot is filled")
        }
        let tail = b.slice(100..300);
        assert_eq!(tail.sidecar(lengths), &[[44, 0]], "filled from the whole buffer");
        assert_eq!(b.clone().sidecar(never).as_ptr(), tail.sidecar(never).as_ptr());
        assert_eq!(tail.buffer(), (&b[..], 100..300));
        let copy = Bytes::from(&tail[..]);
        assert_eq!(copy.sidecar(lengths), &[[200, 0]], "a copy fills its own");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slicing_past_the_end_panics() {
        let _ = Bytes::from(vec![1u8; 4]).slice(2..5);
    }
}
