//! v6census-lint: in-repo static analysis for the v6census workspace.
//!
//! The workspace ships contracts that `rustc` and clippy cannot see:
//! panic-free library paths, byte-for-byte deterministic product
//! output, lossless bit/nybble casts, a typed error taxonomy, a
//! documented process exit-code mapping, and a crash-consistent
//! durability path. This crate enforces them as lexical rules
//! (`L001`–`L008`) over comment- and string-blanked source,
//! interprocedural proofs, and per-line
//! `// lint: allow(<rule>, reason = "...")` suppression pragmas that
//! are themselves machine-checked (`P000`, `P001`).
//!
//! The `R002` bit-domain dataflow ([`dataflow`]) is an interval + unit
//! abstract interpretation whose proofs discharge `L003`/`L006`'s
//! syntactic findings. The other proofs run on one [`summary`] engine:
//! per-fn facts → call-graph fixpoint → witness chain. Each supplies
//! only its direct facts over the [`callgraph`]:
//!
//! * `R001` panic-reachability ([`reach`]) — breadth-first reachability
//!   from the entry points, witnessed up the parent pointers;
//! * `R003` lock-order and `R004` blocking-under-lock ([`locks`] +
//!   [`effects`]) — one acquisition bit per lock and a `may_block` bit,
//!   lifted to a fixpoint and checked over guard scopes;
//! * `R005` alloc-in-hot-loop ([`allocs`]) — a three-point allocation
//!   lattice, lifted and checked over the loop scopes reachable from the
//!   hot entry points; `R006` capacity-discipline checks growth inside
//!   the same loop scopes within each fn.
//!
//! Run it as `cargo run -p lint -- --workspace` (add `--deny all` in
//! CI). Rule scopes live in the checked-in `lint.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocs;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod effects;
pub mod engine;
pub mod intervals;
pub mod lexer;
pub mod locks;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scan;
pub mod summary;
pub mod symbols;
pub mod units;
