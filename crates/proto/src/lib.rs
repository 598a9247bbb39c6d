//! # nectar-proto — the Nectar communication protocols
//!
//! The CAB software between the fiber and the application (paper §6.2):
//!
//! * [`header`] — the byte-exact transport header with the hardware
//!   Fletcher-16 checksum.
//! * [`datalink`] — source routes, the §4.2 HUB command-packet
//!   builders (circuit, packet-switched, multicast), and the
//!   connection cache.
//! * [`transport`] — the three transports of §6.2.2: unreliable
//!   [`datagram`](transport::datagram), sliding-window
//!   [`bytestream`](transport::bytestream), and
//!   [`reqresp`](transport::reqresp) RPC. All are pure state machines
//!   emitting [`Action`](transport::Action)s; the CAB model in
//!   `nectar-core` executes them with the proper time costs.
//! * [`pipeline`] — the §6.2.2 packet-pipeline planner for large
//!   node-to-node messages.
//! * [`inet`] — the §6.2.2 future work, implemented: IPv4
//!   encapsulation over Nectar with TCP/UDP/VMTP protocol mappings.
//!
//! # Examples
//!
//! Building the paper's Fig. 7 circuit-open command packet:
//!
//! ```
//! use nectar_proto::datalink::{Hop, Route};
//! use nectar_hub::id::{HubId, PortId};
//!
//! let route = Route::new(vec![
//!     Hop { hub: HubId::new(2), out: PortId::new(8) },
//!     Hop { hub: HubId::new(1), out: PortId::new(8) },
//! ]);
//! let items = route.circuit_open_items();
//! assert_eq!(items[0].to_string(), "cmd[open with retry HUB2 P8]");
//! assert_eq!(items[1].to_string(), "cmd[open with retry and reply HUB1 P8]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datalink;
pub mod header;
pub mod inet;
pub mod pipeline;
pub mod transport;

/// The most frequently used names, for glob import.
pub mod prelude {
    pub use crate::datalink::{Hop, MulticastRoute, Route, RouteTable};
    pub use crate::header::{
        DecodeError, Header, MailboxAddr, PacketKind, HEADER_BYTES, MAX_FRAGMENT_PAYLOAD,
    };
    pub use crate::inet::{AddressMap, IpHeader, IpProto};
    pub use crate::pipeline::PipelineModel;
    pub use crate::transport::bytestream::{ByteStream, ByteStreamConfig, ByteStreamStats};
    pub use crate::transport::datagram::Datagram;
    pub use crate::transport::reqresp::{ReqRespClient, ReqRespConfig, ReqRespServer};
    pub use crate::transport::{Action, TimerToken, TransportError};
}
