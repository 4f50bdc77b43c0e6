//! The paper's algorithms, one module per Table 1 family. Each module
//! contributes its controller **and** its [`crate::registry::TableRow`]
//! descriptor; shared scaffolding (group runs, the settle phase, the
//! group-phase controller every map-finding row from Theorem 2 to 7 runs
//! on) lives in [`common`].

pub mod baseline;
pub mod common;
pub mod half;
pub mod quotient;
pub mod ring_opt;
pub mod sqrt;
pub mod strong;
pub mod third;

pub use baseline::BaselineController;
pub use common::{GroupPhaseController, GroupScheme, GroupTail, SettlePhase};
pub use quotient::QuotientController;
pub use ring_opt::RingOptController;
pub use sqrt::SqrtController;
