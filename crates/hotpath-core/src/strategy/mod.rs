//! The SinglePath discovery strategy (Section 5.3) and its FSA-overlap
//! support machinery.

mod arrivals;
mod overlap;
mod singlepath;

pub use arrivals::Arrivals;
pub use overlap::{FsaCache, FsaSet, Neighbourhood, QueryScratch};
pub use singlepath::{
    phase_b, process_batch, CaseKind, CaseTally, OverlapPolicy, PhaseBLoad, PhaseBScratch,
    ScratchArena, Selection,
};
