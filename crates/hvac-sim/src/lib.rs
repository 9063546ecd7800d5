//! Discrete-event simulation of HVAC at supercomputer scale.
//!
//! The paper's headline experiments run on 1,024 Summit nodes. We cannot
//! rent Summit, but the experiments measure *queueing* — metadata servers
//! melting under millions of small opens (Fig. 3), bandwidth saturating
//! under large reads (Fig. 4), data movers absorbing first-epoch copies
//! (Fig. 11) — and queueing simulates faithfully. This crate provides:
//!
//! * [`engine`] — a classical event-heap simulator over a user world type,
//! * [`resource`] — virtual-time resources: multi-server FIFO pools, fluid
//!   bandwidth pipes, IOPS gates (completion times are computed
//!   arithmetically; the event heap orders process steps),
//! * [`gpfs`] — the GPFS/Alpine model: MDS pool + token costs + striped
//!   aggregate bandwidth, calibrated from §II-C/§IV-A,
//! * [`iostack`] — the three I/O backends of the evaluation: `GpfsBackend`,
//!   `XfsLocalBackend` (staged node-local data, the upper bound) and
//!   `HvacBackend` (i×1 instances, hash placement via the *real*
//!   `hvac-hash` code, data-mover queues, first-read copies),
//! * [`mdtest`] — the MDTest storm used for Figs. 3 and 4.
//!
//! All randomness comes from seeded [`rand::rngs::StdRng`]; simulations are
//! bit-reproducible.

pub mod engine;
pub mod gpfs;
pub mod iostack;
pub mod mdtest;
pub mod resource;

pub use engine::Engine;
pub use gpfs::GpfsModel;
pub use iostack::{GpfsBackend, HvacBackend, IoBackend, XfsLocalBackend};
pub use mdtest::{run_mdtest, MdtestConfig, MdtestResult};
pub use resource::{FifoPool, FluidPipe, IopsGate};
