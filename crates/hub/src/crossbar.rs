//! The crossbar switch at the heart of the HUB.
//!
//! The crossbar "can connect the input queue of a port to the output
//! register of any other port. An input queue can be connected to
//! multiple output registers (for multicast), but only one input queue
//! can be connected to an output register at a time" (§4.1). This
//! module enforces exactly that invariant.
//!
//! # Examples
//!
//! ```
//! use nectar_hub::crossbar::Crossbar;
//! use nectar_hub::id::PortId;
//!
//! let mut xb = Crossbar::new(16);
//! let (p4, p8, p5) = (PortId::new(4), PortId::new(8), PortId::new(5));
//! xb.connect(p4, p8).unwrap();
//! xb.connect(p4, p5).unwrap(); // multicast fan-out from P4
//! assert_eq!(xb.input_for(p8), Some(p4));
//! assert_eq!(xb.outputs_for(p4), vec![p5, p8]);
//! assert!(xb.connect(PortId::new(3), p8).is_err()); // P8 already driven
//! ```

use crate::id::{PortId, PortSet};
use core::fmt;

/// Why a connection could not be made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// The output register is already driven by another input queue.
    OutputBusy {
        /// The input currently driving it.
        held_by: PortId,
    },
    /// Input and output are the same port; the crossbar connects a port
    /// only "to the output register of any *other* port".
    SelfConnection,
    /// A port id at or beyond the crossbar's size.
    PortOutOfRange,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::OutputBusy { held_by } => {
                write!(f, "output register already driven by input {held_by}")
            }
            ConnectError::SelfConnection => f.write_str("cannot connect a port to itself"),
            ConnectError::PortOutOfRange => f.write_str("port id out of range"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// An N×N crossbar: at most one input per output, any fan-out per input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossbar {
    /// `input_of[out] = Some(in)` when `in -> out` is connected.
    input_of: Vec<Option<PortId>>,
    /// The inverse of `input_of`: `outputs_of[in]` holds exactly the
    /// outputs `in` drives. Kept current by every connect and
    /// disconnect, so the forwarding path reads an input's fan-out
    /// instead of scanning every output for it.
    outputs_of: Vec<PortSet>,
}

impl Crossbar {
    /// Creates a crossbar with `ports` ports and no connections.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or exceeds 256 (port ids are one wire
    /// byte).
    pub fn new(ports: usize) -> Crossbar {
        assert!(ports > 0 && ports <= 256, "crossbar size must be 1..=256");
        Crossbar { input_of: vec![None; ports], outputs_of: vec![PortSet::EMPTY; ports] }
    }

    fn check(&self, p: PortId) -> Result<(), ConnectError> {
        if p.index() < self.input_of.len() {
            Ok(())
        } else {
            Err(ConnectError::PortOutOfRange)
        }
    }

    /// Connects `input`'s queue to `output`'s register.
    ///
    /// Re-connecting an existing pair is idempotent and succeeds.
    ///
    /// # Errors
    ///
    /// [`ConnectError::OutputBusy`] if another input drives `output`;
    /// [`ConnectError::SelfConnection`] if `input == output`;
    /// [`ConnectError::PortOutOfRange`] for ids at or past the crossbar
    /// size.
    pub fn connect(&mut self, input: PortId, output: PortId) -> Result<(), ConnectError> {
        self.check(input)?;
        self.check(output)?;
        if input == output {
            return Err(ConnectError::SelfConnection);
        }
        match self.input_of[output.index()] {
            Some(held_by) if held_by != input => Err(ConnectError::OutputBusy { held_by }),
            _ => {
                self.input_of[output.index()] = Some(input);
                self.outputs_of[input.index()].insert(output);
                Ok(())
            }
        }
    }

    /// Breaks the connection feeding `output`. Returns the input that
    /// was driving it, if any.
    pub fn disconnect_output(&mut self, output: PortId) -> Option<PortId> {
        let input = self.input_of.get_mut(output.index())?.take()?;
        self.outputs_of[input.index()].remove(output);
        Some(input)
    }

    /// Breaks every connection fed by `input`. Returns the outputs that
    /// were disconnected, in ascending order.
    pub fn disconnect_input(&mut self, input: PortId) -> Vec<PortId> {
        let Some(set) = self.outputs_of.get_mut(input.index()) else {
            return Vec::new();
        };
        let freed: Vec<PortId> = std::mem::take(set).iter().collect();
        for out in &freed {
            self.input_of[out.index()] = None;
        }
        freed
    }

    /// Breaks every connection.
    pub fn disconnect_all(&mut self) {
        self.input_of.fill(None);
        self.outputs_of.fill(PortSet::EMPTY);
    }

    /// The input driving `output`, if connected.
    pub fn input_for(&self, output: PortId) -> Option<PortId> {
        self.input_of.get(output.index()).copied().flatten()
    }

    /// The outputs fed by `input` (the multicast fan-out set), ascending.
    pub fn outputs_for(&self, input: PortId) -> Vec<PortId> {
        self.input_of
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(input))
            .map(|(i, _)| PortId::new(i as u8))
            .collect()
    }

    /// [`outputs_for`](Crossbar::outputs_for) as a [`PortSet`]: the
    /// same ports in the same (ascending) iteration order, read from
    /// the fan-out index — the form the forwarding path uses.
    pub fn output_set(&self, input: PortId) -> PortSet {
        self.outputs_of.get(input.index()).copied().unwrap_or(PortSet::EMPTY)
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.input_of.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates `(input, output)` pairs of live connections.
    pub(crate) fn connections(&self) -> impl Iterator<Item = (PortId, PortId)> + '_ {
        self.input_of
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|input| (input, PortId::new(i as u8))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u8) -> PortId {
        PortId::new(n)
    }

    #[test]
    fn connect_and_lookup() {
        let mut xb = Crossbar::new(16);
        xb.connect(p(4), p(8)).unwrap();
        assert_eq!(xb.input_for(p(8)), Some(p(4)));
        assert!(xb.input_for(p(8)).is_some());
        assert!(xb.input_for(p(4)).is_none());
        assert_eq!(xb.connection_count(), 1);
    }

    #[test]
    fn one_input_per_output() {
        let mut xb = Crossbar::new(16);
        xb.connect(p(1), p(5)).unwrap();
        assert_eq!(xb.connect(p(2), p(5)), Err(ConnectError::OutputBusy { held_by: p(1) }));
        // Idempotent re-connect by the same input succeeds.
        assert!(xb.connect(p(1), p(5)).is_ok());
        assert_eq!(xb.connection_count(), 1);
    }

    #[test]
    fn multicast_fan_out() {
        let mut xb = Crossbar::new(16);
        for out in [3, 5, 9] {
            xb.connect(p(1), p(out)).unwrap();
        }
        assert_eq!(xb.outputs_for(p(1)), vec![p(3), p(5), p(9)]);
        assert_eq!(xb.connection_count(), 3);
    }

    #[test]
    fn disconnect_output_returns_holder() {
        let mut xb = Crossbar::new(16);
        xb.connect(p(2), p(7)).unwrap();
        assert_eq!(xb.disconnect_output(p(7)), Some(p(2)));
        assert_eq!(xb.disconnect_output(p(7)), None);
        assert!(xb.input_for(p(7)).is_none());
    }

    #[test]
    fn disconnect_input_frees_fan_out() {
        let mut xb = Crossbar::new(16);
        xb.connect(p(1), p(3)).unwrap();
        xb.connect(p(1), p(4)).unwrap();
        xb.connect(p(2), p(5)).unwrap();
        assert_eq!(xb.disconnect_input(p(1)), vec![p(3), p(4)]);
        assert_eq!(xb.connection_count(), 1);
        assert_eq!(xb.input_for(p(5)), Some(p(2)));
    }

    #[test]
    fn self_connection_rejected() {
        let mut xb = Crossbar::new(16);
        assert_eq!(xb.connect(p(6), p(6)), Err(ConnectError::SelfConnection));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut xb = Crossbar::new(16);
        assert_eq!(xb.connect(p(16), p(1)), Err(ConnectError::PortOutOfRange));
        assert_eq!(xb.connect(p(1), p(200)), Err(ConnectError::PortOutOfRange));
        assert_eq!(xb.input_for(p(200)), None);
    }

    #[test]
    fn disconnect_all_clears() {
        let mut xb = Crossbar::new(8);
        xb.connect(p(0), p(1)).unwrap();
        xb.connect(p(2), p(3)).unwrap();
        xb.disconnect_all();
        assert_eq!(xb.connection_count(), 0);
    }

    #[test]
    fn connections_iterator() {
        let mut xb = Crossbar::new(8);
        xb.connect(p(0), p(1)).unwrap();
        xb.connect(p(0), p(2)).unwrap();
        let pairs: Vec<_> = xb.connections().collect();
        assert_eq!(pairs, vec![(p(0), p(1)), (p(0), p(2))]);
    }
}
