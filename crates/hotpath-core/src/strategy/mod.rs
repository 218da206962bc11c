//! The SinglePath discovery strategy (Section 5.3) and its FSA-overlap
//! support machinery.

mod overlap;
mod pool;
mod singlepath;

pub use overlap::{FsaCache, FsaSet, QueryScratch};
pub use pool::WorkerPool;
pub use singlepath::{
    build_fsa_set, phase_a, phase_b, phase_b_apply, phase_b_eval, process_batch, CaseKind,
    CaseTally, OverlapPolicy, PathReader, PathStore, PhaseAOutput, PhaseBEval, PhaseBLoad,
    PhaseBScratch, ScratchArena, Selection, SingleReader, SingleStore,
};
