//! Message fragmentation and reassembly.
//!
//! "This involves breaking messages into packets, reassembling
//! messages, ..." (§6.2.2). Fragments are sized so a whole packet
//! (header + payload + framing) fits the 1 KB HUB input queue.

use nectar_sim::bytes::Bytes;

/// Splits `data` into fragment payloads of at most `max_payload` bytes.
/// Each fragment is a slice of `data`: nothing is copied.
///
/// A zero-length message yields one empty fragment, so every message
/// occupies at least one packet on the wire.
///
/// # Panics
///
/// Panics if `max_payload` is zero.
///
/// # Examples
///
/// ```
/// use nectar_proto::transport::frag::fragment;
/// use nectar_sim::bytes::Bytes;
/// let frags = fragment(&Bytes::zeroed(2500), 990);
/// assert_eq!(frags.len(), 3);
/// assert_eq!(frags[0].len(), 990);
/// assert_eq!(frags[2].len(), 520);
/// ```
pub fn fragment(data: &Bytes, max_payload: usize) -> Vec<Bytes> {
    assert!(max_payload > 0, "fragment payload size must be positive");
    if data.is_empty() {
        return vec![data.clone()];
    }
    (0..data.len())
        .step_by(max_payload)
        .map(|at| data.slice(at..(at + max_payload).min(data.len())))
        .collect()
}

/// Number of fragments [`fragment`] would produce.
pub fn fragment_count(len: usize, max_payload: usize) -> usize {
    if len == 0 {
        1
    } else {
        len.div_ceil(max_payload)
    }
}

/// In-order reassembly of one message at a time (the byte-stream
/// transport delivers fragments in order, so a single accumulator
/// suffices; out-of-order arrival is a protocol error surfaced to the
/// caller).
///
/// A one-fragment message is its fragment, shared. A longer one gets
/// one buffer, sized at its first fragment for `frag_count` fragments
/// that long; each fragment is written into it once, and the finished
/// buffer moves into the message's [`Bytes`] without a copy.
#[derive(Clone, Debug, Default)]
pub struct Reassembler {
    current: Option<InProgress>,
}

#[derive(Clone, Debug)]
struct InProgress {
    msg_id: u32,
    frag_count: u16,
    next_index: u16,
    /// The message so far. A fragment longer than the first grows
    /// it: no conforming sender makes one, but the message still
    /// assembles.
    buf: Vec<u8>,
}

/// Outcome of feeding one fragment to the [`Reassembler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReassemblyOutcome {
    /// Fragment accepted; the message is not complete yet.
    Incomplete,
    /// The message is complete; here is its payload.
    Complete(Bytes),
    /// The fragment does not continue the in-progress message
    /// (unexpected id or index); the in-progress message is discarded.
    Mismatch,
}

impl Reassembler {
    /// An idle reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds the next in-order fragment of message `msg_id`.
    pub fn push(
        &mut self,
        msg_id: u32,
        frag_index: u16,
        frag_count: u16,
        payload: &Bytes,
    ) -> ReassemblyOutcome {
        if frag_count == 0 || frag_index >= frag_count {
            self.current = None;
            return ReassemblyOutcome::Mismatch;
        }
        match &mut self.current {
            None => {
                if frag_index != 0 {
                    return ReassemblyOutcome::Mismatch;
                }
                if frag_count == 1 {
                    return ReassemblyOutcome::Complete(payload.clone());
                }
                let mut buf = Vec::with_capacity(frag_count as usize * payload.len());
                buf.extend_from_slice(payload);
                self.current = Some(InProgress { msg_id, frag_count, next_index: 1, buf });
                ReassemblyOutcome::Incomplete
            }
            Some(ip) => {
                if ip.msg_id != msg_id || ip.frag_count != frag_count || ip.next_index != frag_index
                {
                    self.current = None;
                    return ReassemblyOutcome::Mismatch;
                }
                ip.buf.extend_from_slice(payload);
                ip.next_index += 1;
                if ip.next_index == ip.frag_count {
                    let done = self.current.take().expect("in progress");
                    ReassemblyOutcome::Complete(Bytes::from(done.buf))
                } else {
                    ReassemblyOutcome::Incomplete
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MAX_FRAGMENT_PAYLOAD;

    #[test]
    fn fragment_sizes() {
        let frags = fragment(&Bytes::zeroed(1000), 400);
        assert_eq!(frags.iter().map(|f| f.len()).collect::<Vec<_>>(), vec![400, 400, 200]);
        assert_eq!(fragment_count(1000, 400), 3);
    }

    #[test]
    fn empty_message_is_one_fragment() {
        let frags = fragment(&Bytes::new(), 400);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].is_empty());
        assert_eq!(fragment_count(0, 400), 1);
    }

    #[test]
    fn exact_multiple() {
        assert_eq!(fragment(&Bytes::zeroed(800), 400).len(), 2);
        assert_eq!(fragment_count(800, 400), 2);
    }

    #[test]
    fn default_max_fits_hub_queue() {
        let frags = fragment(&Bytes::zeroed(10_000), MAX_FRAGMENT_PAYLOAD);
        for f in &frags {
            assert!(f.len() <= MAX_FRAGMENT_PAYLOAD);
        }
    }

    #[test]
    fn reassembly_roundtrip() {
        let data = Bytes::from((0..=255u8).cycle().take(3000).collect::<Vec<u8>>());
        let frags = fragment(&data, 990);
        let mut r = Reassembler::new();
        let n = frags.len() as u16;
        for (i, f) in frags.iter().enumerate() {
            let outcome = r.push(7, i as u16, n, f);
            if i + 1 == frags.len() {
                assert_eq!(outcome, ReassemblyOutcome::Complete(data.clone()));
            } else {
                assert_eq!(outcome, ReassemblyOutcome::Incomplete);
            }
        }
        assert!(r.current.is_none());
    }

    #[test]
    fn single_fragment_completes_immediately() {
        let mut r = Reassembler::new();
        let x = Bytes::from(b"x");
        let ReassemblyOutcome::Complete(whole) = r.push(1, 0, 1, &x) else {
            panic!("one fragment is the whole message")
        };
        assert_eq!(whole.as_ptr(), x.as_ptr(), "a one-fragment message shares its fragment");
    }

    #[test]
    fn mismatched_fragment_discards_progress() {
        let mut r = Reassembler::new();
        assert_eq!(r.push(1, 0, 3, &Bytes::from(b"a")), ReassemblyOutcome::Incomplete);
        // Wrong message id mid-stream.
        assert_eq!(r.push(2, 1, 3, &Bytes::from(b"b")), ReassemblyOutcome::Mismatch);
        assert!(r.current.is_none());
        // Starting over works.
        assert_eq!(r.push(2, 0, 2, &Bytes::from(b"a")), ReassemblyOutcome::Incomplete);
        assert!(matches!(r.push(2, 1, 2, &Bytes::from(b"b")), ReassemblyOutcome::Complete(_)));
    }

    #[test]
    fn non_initial_fragment_without_context_is_mismatch() {
        let mut r = Reassembler::new();
        assert_eq!(r.push(1, 1, 3, &Bytes::from(b"b")), ReassemblyOutcome::Mismatch);
    }

    #[test]
    fn degenerate_counts_rejected() {
        let mut r = Reassembler::new();
        assert_eq!(r.push(1, 0, 0, &Bytes::from(b"")), ReassemblyOutcome::Mismatch);
        assert_eq!(r.push(1, 5, 3, &Bytes::from(b"")), ReassemblyOutcome::Mismatch);
    }
}
