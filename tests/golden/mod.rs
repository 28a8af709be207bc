//! The two golden 4-rank trajectory digests, defined once for every test
//! binary that pins them (`corpus`, `service`, `chaos`): a deliberate
//! re-pin edits one line per digest, here.
//!
//! Each is [`bltc::service::state_digest`] of a seeded trajectory — the
//! service suite's `plummer(128, seed 42, 4 ranks, 3 steps)` and
//! `electrolyte(96, seed 7, 4 ranks, 3 steps)` — hashed bit-exactly. Both
//! are **libm-dependent**: their initial conditions call the C library's
//! `powf`, `sin`, `cos` and `ln`.

/// Plummer sphere, softened Coulomb forces.
pub const GOLDEN_PLUMMER_STATE: u64 = 0x3d54_0002_3de0_7f3b;

/// Electrolyte box, softened Yukawa forces.
pub const GOLDEN_ELECTROLYTE_STATE: u64 = 0x1617_ce0a_6dc9_8687;
