//! Mailboxes: the CAB's message buffering mechanism.
//!
//! "Another CAB function is to provide temporary buffer space for
//! messages in an efficient way. This is achieved using mailboxes in
//! CAB memory. In the common single-reader, single-writer case,
//! allocating and reclaiming space is simple because mailboxes behave
//! like FIFOs. Mailboxes also support multiple readers, multiple
//! writers, and out-of-order reads" (§6.1).
//!
//! # Examples
//!
//! ```
//! use nectar_kernel::mailbox::{Mailbox, Message};
//!
//! let mut mb = Mailbox::new("requests", 64 * 1024);
//! mb.append(Message::new(1, 0, vec![1, 2, 3])).unwrap();
//! mb.append(Message::new(2, 7, vec![4])).unwrap();
//! // FIFO fast path:
//! assert_eq!(mb.take_next().unwrap().id(), 1);
//! // Out-of-order read by tag (e.g. an RPC response matcher):
//! assert!(mb.take_by_tag(7).is_some());
//! assert!(mb.is_empty());
//! ```

use core::fmt;
use nectar_sim::bytes::Bytes;
use std::collections::VecDeque;

/// One message held in a mailbox. Its payload is a [`Bytes`] slice:
/// a datagram or RPC message is the very payload its packet carried,
/// so landing in a mailbox copies nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    id: u64,
    tag: u32,
    data: Bytes,
}

impl Message {
    /// Creates a message. `id` is unique per sender; `tag` is a
    /// protocol-defined matching key (e.g. an RPC transaction id).
    pub fn new(id: u64, tag: u32, data: impl Into<Bytes>) -> Message {
        Message { id, tag, data: data.into() }
    }

    /// The message id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The protocol matching tag.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// The payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{} tag={} ({} B)", self.id, self.tag, self.len())
    }
}

/// Why an append was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MailboxFull {
    /// Bytes the message needed.
    pub needed: usize,
    /// Bytes currently free.
    pub free: usize,
}

impl fmt::Display for MailboxFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mailbox full: needed {} bytes, {} free", self.needed, self.free)
    }
}

impl std::error::Error for MailboxFull {}

/// A bounded message queue in CAB data memory.
#[derive(Clone, Debug)]
pub struct Mailbox {
    name: String,
    capacity: usize,
    used: usize,
    messages: VecDeque<Message>,
    peak_used: usize,
    peak_len: usize,
}

impl Mailbox {
    /// Creates an empty mailbox holding at most `capacity` payload
    /// bytes (its reservation in the 1 MB CAB data memory).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Mailbox {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Mailbox {
            name: name.into(),
            capacity,
            used: 0,
            messages: VecDeque::new(),
            peak_used: 0,
            peak_len: 0,
        }
    }

    /// The mailbox name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in payload bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Payload bytes currently buffered.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Free payload bytes.
    fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Appends a message (any writer).
    ///
    /// # Errors
    ///
    /// [`MailboxFull`] if the payload does not fit; the message is not
    /// stored (the transport layer's flow control should prevent this;
    /// the caller counts it when it happens).
    pub fn append(&mut self, msg: Message) -> Result<(), MailboxFull> {
        let needed = msg.len().max(1); // zero-length messages still take a slot
        if needed > self.free() {
            return Err(MailboxFull { needed, free: self.free() });
        }
        self.used += needed;
        self.messages.push_back(msg);
        self.peak_used = self.peak_used.max(self.used);
        self.peak_len = self.peak_len.max(self.messages.len());
        Ok(())
    }

    fn account_take(&mut self, msg: &Message) {
        self.used -= msg.len().max(1);
    }

    /// Removes and returns the oldest message (the single-reader FIFO
    /// fast path).
    pub fn take_next(&mut self) -> Option<Message> {
        let msg = self.messages.pop_front()?;
        self.account_take(&msg);
        Some(msg)
    }

    /// Removes and returns the oldest message with the given tag
    /// (out-of-order read; "multiple servers operate on different
    /// messages in the same mailbox", §6.1).
    pub fn take_by_tag(&mut self, tag: u32) -> Option<Message> {
        let idx = self.messages.iter().position(|m| m.tag() == tag)?;
        let msg = self.messages.remove(idx).expect("index in range");
        self.account_take(&msg);
        Some(msg)
    }

    /// High-water mark of buffered payload bytes.
    pub fn peak_used(&self) -> usize {
        self.peak_used
    }

    /// High-water mark of buffered message count.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, tag: u32, len: usize) -> Message {
        Message::new(id, tag, vec![0u8; len])
    }

    #[test]
    fn fifo_order() {
        let mut mb = Mailbox::new("m", 1024);
        for i in 0..5 {
            mb.append(msg(i, 0, 10)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(mb.take_next().unwrap().id(), i);
        }
        assert!(mb.take_next().is_none());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mb = Mailbox::new("m", 100);
        mb.append(msg(1, 0, 60)).unwrap();
        let err = mb.append(msg(2, 0, 60)).unwrap_err();
        assert_eq!(err, MailboxFull { needed: 60, free: 40 });
        // Draining frees space.
        mb.take_next();
        assert!(mb.append(msg(2, 0, 60)).is_ok());
    }

    #[test]
    fn out_of_order_reads_by_tag() {
        let mut mb = Mailbox::new("m", 1024);
        mb.append(msg(1, 10, 4)).unwrap();
        mb.append(msg(2, 20, 4)).unwrap();
        mb.append(msg(3, 10, 4)).unwrap();
        assert_eq!(mb.take_by_tag(20).unwrap().id(), 2);
        // FIFO among equal tags.
        assert_eq!(mb.take_by_tag(10).unwrap().id(), 1);
        assert_eq!(mb.take_by_tag(10).unwrap().id(), 3);
        assert!(mb.take_by_tag(10).is_none());
    }

    #[test]
    fn byte_accounting_balances() {
        let mut mb = Mailbox::new("m", 1000);
        mb.append(msg(1, 0, 100)).unwrap();
        mb.append(msg(2, 1, 200)).unwrap();
        assert_eq!(mb.used(), 300);
        mb.take_by_tag(1).unwrap();
        assert_eq!(mb.used(), 100);
        mb.take_next().unwrap();
        assert_eq!(mb.used(), 0);
    }

    #[test]
    fn high_water_marks_survive_draining() {
        let mut mb = Mailbox::new("m", 1000);
        mb.append(msg(1, 0, 100)).unwrap();
        mb.append(msg(2, 0, 250)).unwrap();
        mb.take_next().unwrap();
        mb.take_next().unwrap();
        mb.append(msg(3, 0, 10)).unwrap();
        assert_eq!(mb.peak_used(), 350);
        assert_eq!(mb.peak_len(), 2);
    }

    #[test]
    fn zero_length_messages_take_a_slot() {
        let mut mb = Mailbox::new("m", 2);
        mb.append(msg(1, 0, 0)).unwrap();
        mb.append(msg(2, 0, 0)).unwrap();
        assert!(mb.append(msg(3, 0, 0)).is_err());
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let mut mb = Mailbox::new("m", 1024);
        let m = msg(1, 0, 512);
        let data_ptr = m.data().as_ptr();
        mb.append(m).unwrap();
        let out = mb.take_next().unwrap();
        assert_eq!(out.data().as_ptr(), data_ptr, "messages pass by reference (§6.2.1)");
    }
}
